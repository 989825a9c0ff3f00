#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/temp_path.hpp"
#include "trace/workload.hpp"

namespace gh::trace {
namespace {

using gh::test::temp_path;

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

TEST(BagOfWordsFile, ParsesUciFormat) {
  const std::string path = temp_path("gh_bow_ok.txt");
  // 3 docs, vocabulary of 10, 5 doc/word pairs — the UCI docword layout.
  write_file(path,
             "3\n10\n5\n"
             "1 2 4\n"
             "1 7 1\n"
             "2 2 2\n"
             "3 1 9\n"
             "3 10 1\n");
  const Workload w = load_bag_of_words_file(path);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w.keys64[0], (1ull << 32) | 2);
  EXPECT_EQ(w.keys64[1], (1ull << 32) | 7);
  EXPECT_EQ(w.keys64[2], (2ull << 32) | 2);
  EXPECT_EQ(w.keys64[3], (3ull << 32) | 1);
  EXPECT_EQ(w.keys64[4], (3ull << 32) | 10);
  EXPECT_EQ(w.kind, TraceKind::kBagOfWords);
  EXPECT_EQ(w.item_bytes, 16u);
  std::filesystem::remove(path);
}

TEST(BagOfWordsFile, MaxKeysTruncates) {
  const std::string path = temp_path("gh_bow_trunc.txt");
  write_file(path, "2\n5\n3\n1 1 1\n1 2 1\n2 3 1\n");
  const Workload w = load_bag_of_words_file(path, 2);
  EXPECT_EQ(w.size(), 2u);
  std::filesystem::remove(path);
}

TEST(BagOfWordsFile, KeysMatchSyntheticEncoding) {
  // Real-file keys and synthetic keys share the encoding, so either can
  // drive the same benches.
  const std::string path = temp_path("gh_bow_enc.txt");
  write_file(path, "1\n141043\n1\n1 141043 1\n");
  const Workload real = load_bag_of_words_file(path);
  const Workload synthetic = make_bag_of_words(10, 1);
  EXPECT_EQ(real.keys64[0] >> 32, 1u);
  EXPECT_EQ(real.keys64[0] & 0xffffffffull, 141043u);
  EXPECT_EQ(real.item_bytes, synthetic.item_bytes);
  EXPECT_EQ(real.wide_keys, synthetic.wide_keys);
  std::filesystem::remove(path);
}

TEST(BagOfWordsFile, RejectsMissingFile) {
  EXPECT_THROW(load_bag_of_words_file(temp_path("gh_bow_nope.txt")), std::runtime_error);
}

TEST(BagOfWordsFile, RejectsMalformedHeader) {
  const std::string path = temp_path("gh_bow_badhdr.txt");
  write_file(path, "not numbers at all\n");
  EXPECT_THROW(load_bag_of_words_file(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(BagOfWordsFile, RejectsTruncatedData) {
  const std::string path = temp_path("gh_bow_short.txt");
  write_file(path, "2\n5\n3\n1 1 1\n");  // promises 3 pairs, delivers 1
  EXPECT_THROW(load_bag_of_words_file(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(BagOfWordsFile, RejectsOutOfRangeIds) {
  const std::string path = temp_path("gh_bow_range.txt");
  write_file(path, "2\n5\n1\n3 1 1\n");  // docID 3 > D=2
  EXPECT_THROW(load_bag_of_words_file(path), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gh::trace
