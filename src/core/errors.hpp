// Typed errors of the core map layer.
#pragma once

#include <stdexcept>

namespace gh {

/// A write could not be placed AND the resize (growth or compaction) is
/// currently failing — resource exhaustion such as ENOSPC on the
/// target file or an allocation failure, not data loss. The map
/// stays fully serviceable: reads are unaffected, writes that fit still
/// succeed, and the rebuild is retried with capped exponential backoff on
/// subsequent placement failures, so retrying the failed operation later
/// completes it once space returns.
class MapDegradedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace gh
