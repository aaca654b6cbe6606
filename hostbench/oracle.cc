#include "oracle.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/workload.h"

namespace hostbench {

bool AllZero(const char* p, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    uint64_t w[8];
    std::memcpy(w, p + i, sizeof(w));
    if ((w[0] | w[1] | w[2] | w[3] | w[4] | w[5] | w[6] | w[7]) != 0) {
      return false;
    }
  }
  for (; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

void Oracle::Committed(mmdb::Lsn lsn, const std::vector<mmdb::RecordId>& records,
                       uint64_t marker) {
  for (mmdb::RecordId r : records) history_.push_back(Write{lsn, r, marker});
}

void Oracle::Crash(mmdb::Lsn durable) {
  // History is in commit order, so the last durable write of a record wins.
  for (const Write& w : history_) {
    if (w.lsn <= durable) expected_[w.record] = w.marker;
  }
  history_.clear();
  history_.shrink_to_fit();
}

void Oracle::CommittedAfterRestart(const std::vector<mmdb::RecordId>& records,
                                   uint64_t marker) {
  for (mmdb::RecordId r : records) overlay_[r] = marker;
}

uint64_t Oracle::Mismatches(const mmdb::Database& db, std::vector<uint64_t>* bad,
                            size_t max_report) const {
  std::vector<std::pair<mmdb::RecordId, uint64_t>> written(expected_.begin(),
                                                           expected_.end());
  for (const auto& [record, marker] : overlay_) {
    if (!expected_.contains(record)) written.emplace_back(record, marker);
  }
  std::sort(written.begin(), written.end());
  const size_t rb = db.record_bytes();
  const char* data = db.data();
  uint64_t mismatches = 0;
  auto report = [&](uint64_t record) {
    ++mismatches;
    if (bad != nullptr && bad->size() < max_report) bad->push_back(record);
  };
  // Never-written records between `from` and `to` must be zero.
  auto check_zero = [&](uint64_t from, uint64_t to) {
    if (AllZero(data + from * rb, (to - from) * rb)) return;
    for (uint64_t r = from; r < to; ++r) {
      if (!AllZero(data + r * rb, rb)) report(r);
    }
  };
  uint64_t next = 0;
  for (auto [record, marker] : written) {
    auto over = overlay_.find(record);
    if (over != overlay_.end()) marker = over->second;
    check_zero(next, record);
    const std::string image = mmdb::MakeRecordImage(rb, record, marker);
    if (std::memcmp(data + record * rb, image.data(), rb) != 0) report(record);
    next = record + 1;
  }
  check_zero(next, db.num_records());
  return mismatches;
}

}  // namespace hostbench
