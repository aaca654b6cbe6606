// mmdb_audit: inspect and verify the provenance journal (DESIGN.md §18).
//
//   mmdb_audit timeline <audit.log>
//       one line per journal event, in order
//   mmdb_audit explain --segment=S <audit.log>
//       where segment S's recovered bytes came from: the backup copy that
//       supplied it, the checkpoint chain that wrote that copy (including
//       aborted attempts), and the log frames replayed into it
//   mmdb_audit verify <audit.log> [--dump=<metrics.json>]
//       checks per-line CRCs, sequence contiguity, and the event-lifecycle
//       grammar; with --dump, cross-checks the journal's claims against the
//       engine's own account (Engine::DumpMetricsJson). Exits nonzero on
//       any divergence.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "env/env.h"
#include "obs/audit.h"
#include "util/json.h"
#include "util/string_util.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s timeline <audit.log>\n"
               "       %s explain --segment=S <audit.log>\n"
               "       %s verify <audit.log> [--dump=<metrics.json>]\n",
               argv0, argv0, argv0);
  return 2;
}

// Compact payload view: the line object minus the envelope members.
std::string PayloadString(const mmdb::AuditEntry& e) {
  mmdb::JsonWriter w;
  w.BeginObject();
  for (const auto& [key, value] : e.object.object_items()) {
    if (key == "seq" || key == "t" || key == "event" || key == "crc") {
      continue;
    }
    w.Key(key);
    w.RawValue(value.Dump());
  }
  w.EndObject();
  return w.TakeString();
}

int RunTimeline(const std::vector<mmdb::AuditEntry>& entries) {
  for (const mmdb::AuditEntry& e : entries) {
    std::printf("%6llu  %14.6f  %-18s %s\n",
                static_cast<unsigned long long>(e.seq), e.t, e.event.c_str(),
                PayloadString(e).c_str());
  }
  std::printf("%zu entries\n", entries.size());
  return 0;
}

int RunExplain(const std::vector<mmdb::AuditEntry>& entries,
               mmdb::SegmentId segment) {
  mmdb::StatusOr<mmdb::SegmentProvenance> p =
      mmdb::ExplainSegment(entries, segment);
  if (!p.ok()) {
    std::fprintf(stderr, "error: %s\n", p.status().ToString().c_str());
    return 1;
  }
  std::printf("segment %llu\n", static_cast<unsigned long long>(p->segment));
  if (p->lineage.checkpoint_id == 0) {
    std::printf("  restored from: nothing (cold start, empty image)\n");
  } else {
    std::printf("  restored from: checkpoint %llu, copy %u%s\n",
                static_cast<unsigned long long>(p->lineage.checkpoint_id),
                p->lineage.copy,
                p->lineage.retried
                    ? " (re-read from the older copy after a failure)"
                    : "");
  }
  std::printf("  recovered at:  t=%.6f\n", p->recovered_t);
  if (p->checkpoint_in_journal) {
    std::printf("  checkpoint:    %s, begin t=%.6f end t=%.6f",
                p->checkpoint_algorithm.c_str(), p->checkpoint_begin_t,
                p->checkpoint_end_t);
    if (p->checkpoint_aborted_attempts > 0) {
      std::printf(" (%llu aborted attempt%s before completion)",
                  static_cast<unsigned long long>(
                      p->checkpoint_aborted_attempts),
                  p->checkpoint_aborted_attempts == 1 ? "" : "s");
    }
    std::printf("\n");
  } else if (p->lineage.checkpoint_id != 0) {
    std::printf(
        "  checkpoint:    chain not in this journal (predates it or the "
        "journal was truncated)\n");
  }
  if (p->lineage.frames == 0) {
    std::printf("  replay:        no committed records touched it\n");
  } else {
    std::printf("  replay:        %llu committed record%s, LSN %llu..%llu\n",
                static_cast<unsigned long long>(p->lineage.frames),
                p->lineage.frames == 1 ? "" : "s",
                static_cast<unsigned long long>(p->lineage.first_lsn),
                static_cast<unsigned long long>(p->lineage.last_lsn));
  }
  return 0;
}

int RunVerify(const std::string& journal_text, const char* dump_path) {
  mmdb::JsonValue dump;
  const mmdb::JsonValue* dump_ptr = nullptr;
  if (dump_path != nullptr) {
    std::string dump_text;
    mmdb::Status read =
        mmdb::Env::Posix()->ReadFileToString(dump_path, &dump_text);
    if (!read.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", dump_path,
                   read.ToString().c_str());
      return 1;
    }
    mmdb::StatusOr<mmdb::JsonValue> parsed = mmdb::JsonValue::Parse(dump_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error parsing %s: %s\n", dump_path,
                   parsed.status().ToString().c_str());
      return 1;
    }
    dump = std::move(*parsed);
    dump_ptr = &dump;
  }
  mmdb::Status verdict = mmdb::VerifyAuditJournal(journal_text, dump_ptr);
  if (!verdict.ok()) {
    std::fprintf(stderr, "verify FAILED: %s\n", verdict.ToString().c_str());
    return 1;
  }
  std::printf("verify OK%s\n",
              dump_ptr != nullptr ? " (journal + engine cross-check)"
                                  : " (journal structure only)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  const std::string mode = argv[1];
  const char* journal_path = nullptr;
  const char* dump_path = nullptr;
  bool have_segment = false;
  uint64_t segment = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--segment=", 10) == 0) {
      if (!mmdb::ParseNumber(argv[i] + 10, &segment)) return Usage(argv[0]);
      have_segment = true;
    } else if (std::strncmp(argv[i], "--dump=", 7) == 0) {
      dump_path = argv[i] + 7;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    } else if (journal_path == nullptr) {
      journal_path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (journal_path == nullptr) return Usage(argv[0]);

  std::string journal_text;
  mmdb::Status read =
      mmdb::Env::Posix()->ReadFileToString(journal_path, &journal_text);
  if (!read.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", journal_path,
                 read.ToString().c_str());
    return 1;
  }

  if (mode == "verify") return RunVerify(journal_text, dump_path);

  mmdb::StatusOr<std::vector<mmdb::AuditEntry>> entries =
      mmdb::ParseAuditJournal(journal_text);
  if (!entries.ok()) {
    std::fprintf(stderr, "error: %s\n", entries.status().ToString().c_str());
    return 1;
  }
  if (mode == "timeline") return RunTimeline(*entries);
  if (mode == "explain") {
    if (!have_segment) {
      std::fprintf(stderr, "explain requires --segment=S\n");
      return 2;
    }
    return RunExplain(*entries, segment);
  }
  return Usage(argv[0]);
}
