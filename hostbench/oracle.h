#ifndef HOSTBENCH_ORACLE_H_
#define HOSTBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/database.h"
#include "util/types.h"

namespace hostbench {

// The correctness gate's model of what a restart must produce. Record
// images are MakeRecordImage(record, marker), so a record's state is just
// the marker of its last committed write (none: the record was never
// written and must read as zeros).
//
// Commits before a crash go to the history; Crash(durable) keeps exactly
// the writes of transactions whose commit LSN is <= the durable LSN.
// Commits made after a restart (the instant restart's probe load) go to an
// overlay on top of that state.
class Oracle {
 public:
  void Committed(mmdb::Lsn lsn, const std::vector<mmdb::RecordId>& records,
                 uint64_t marker);
  void Crash(mmdb::Lsn durable);

  void CommittedAfterRestart(const std::vector<mmdb::RecordId>& records,
                             uint64_t marker);
  void ClearOverlay() { overlay_.clear(); }

  // Records of `db` that differ from the expected state (crash state plus
  // overlay): wrong image, missing write, or a write that should not be
  // there. Writes up to `max_report` offending record ids to `bad`.
  uint64_t Mismatches(const mmdb::Database& db, std::vector<uint64_t>* bad,
                      size_t max_report = 4) const;

  size_t expected_records() const { return expected_.size(); }

 private:
  struct Write {
    mmdb::Lsn lsn;
    mmdb::RecordId record;
    uint64_t marker;
  };
  std::vector<Write> history_;
  std::unordered_map<mmdb::RecordId, uint64_t> expected_;
  std::unordered_map<mmdb::RecordId, uint64_t> overlay_;
};

// True when the `n` bytes at `p` are all zero.
bool AllZero(const char* p, size_t n);

}  // namespace hostbench

#endif  // HOSTBENCH_ORACLE_H_
