#ifndef MMDB_TXN_TIMESTAMPS_H_
#define MMDB_TXN_TIMESTAMPS_H_

#include "util/types.h"

namespace mmdb {

// Dense logical timestamp source. Transactions draw tau(T) at Begin and
// COU checkpoints draw tau(CH) when they start (Section 3.2.2); comparing
// these decides when a segment's pre-checkpoint image must be preserved.
class TimestampOracle {
 public:
  TimestampOracle() : next_(1) {}

  // Returns a fresh timestamp, strictly greater than all earlier ones.
  Timestamp Next() { return next_++; }

  void Reset() { next_ = 1; }

 private:
  Timestamp next_;
};

}  // namespace mmdb

#endif  // MMDB_TXN_TIMESTAMPS_H_
