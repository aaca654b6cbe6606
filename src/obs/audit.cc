#include "obs/audit.h"

#include <algorithm>
#include <utility>

#include "util/crc32c.h"

namespace mmdb {
namespace {

// Validates one complete journal line (no trailing newline): the crc member
// must be present, must be the literal splice Append() wrote, and must
// cover the line with that splice removed.
bool ParseLine(std::string_view line, AuditEntry* out) {
  size_t pos = line.rfind(",\"crc\":");
  if (pos == std::string_view::npos) return false;
  std::string body(line.substr(0, pos));
  body += '}';
  StatusOr<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const JsonValue* crc = parsed->Find("crc");
  const JsonValue* seq = parsed->Find("seq");
  const JsonValue* t = parsed->Find("t");
  const JsonValue* event = parsed->Find("event");
  if (crc == nullptr || !crc->is_number() || seq == nullptr ||
      !seq->is_number() || t == nullptr || !t->is_number() ||
      event == nullptr || !event->is_string()) {
    return false;
  }
  if (crc32c::Value(body) != static_cast<uint32_t>(crc->number_value())) {
    return false;
  }
  out->seq = static_cast<uint64_t>(seq->number_value());
  out->t = t->number_value();
  out->event = event->string_value();
  out->object = std::move(*parsed);
  return true;
}

// Reopens an existing journal for append and sets `*next_seq` past its
// longest prefix of complete, CRC-clean, gap-free lines. Anything after the
// first damaged line (a torn append from a crash or an injected fault) is
// cut by writing the prefix to "<path>.tmp" (synced) and renaming it over
// the journal, so a failure leaves the original file, every line intact.
StatusOr<std::unique_ptr<WritableFile>> ReopenJournal(Env* env,
                                                      const std::string& path,
                                                      uint64_t* next_seq) {
  std::string existing;
  MMDB_RETURN_IF_ERROR(env->ReadFileToString(path, &existing));
  size_t kept = 0;
  uint64_t last_seq = 0;
  while (kept < existing.size()) {
    size_t nl = existing.find('\n', kept);
    if (nl == std::string::npos) break;
    AuditEntry e;
    if (!ParseLine({existing.data() + kept, nl - kept}, &e) ||
        e.seq != last_seq + 1) {
      break;
    }
    last_seq = e.seq;
    kept = nl + 1;
  }
  *next_seq = last_seq + 1;
  if (kept < existing.size()) {
    const std::string tmp = path + ".tmp";
    existing.resize(kept);
    MMDB_RETURN_IF_ERROR(env->WriteStringToFile(tmp, existing, /*sync=*/true));
    MMDB_RETURN_IF_ERROR(env->RenameFile(tmp, path));
  }
  return env->NewAppendableFile(path);
}

uint64_t AsU64(const JsonValue& v) {
  return static_cast<uint64_t>(v.number_value());
}

}  // namespace

AuditJournal::AuditJournal(Env* env, std::string path)
    : env_(env), path_(std::move(path)) {}

void AuditJournal::Open(bool fresh) {
  StatusOr<std::unique_ptr<WritableFile>> file =
      fresh || !env_->FileExists(path_)
          ? env_->NewWritableFile(path_)
          : ReopenJournal(env_, path_, &next_seq_);
  if (!file.ok()) {
    ++counters_.append_errors;
    return;
  }
  file_ = std::move(*file);
}

void AuditJournal::Append(const TraceEvent& event,
                          const TraceDetail& detail) {
  if (file_ == nullptr) return;
  const TraceEventSpec& spec = TraceEventSpecFor(event.type);
  JsonWriter w;
  w.BeginObject();
  w.Key("seq");
  w.Uint(next_seq_);
  w.Key("t");
  w.Double(event.time);
  w.Key("event");
  w.String(spec.name);
  WriteTraceFields(event, detail, &w);
  w.EndObject();
  std::string line = w.TakeString();
  uint32_t crc = crc32c::Value(line);
  line.pop_back();
  line += ",\"crc\":";
  line += std::to_string(crc);
  line += "}\n";
  if (Status st = file_->Append(line); !st.ok()) {
    // The line may have torn mid-append; nothing may be written after it.
    ++counters_.append_errors;
    file_.reset();
    return;
  }
  ++next_seq_;
  ++counters_.entries;
  counters_.bytes += line.size();
  if (spec.synced) {
    ++counters_.syncs;
    if (!file_->Sync().ok()) ++counters_.sync_errors;
  }
}

void WriteLineageJson(const std::vector<SegmentLineage>& lineage,
                      JsonWriter* w) {
  w->BeginObject();
  w->Key("segments");
  w->Uint(lineage.size());
  w->Key("checkpoint");
  w->BeginArray();
  for (const SegmentLineage& l : lineage) w->Uint(l.checkpoint_id);
  w->EndArray();
  w->Key("copy");
  w->BeginArray();
  for (const SegmentLineage& l : lineage) w->Uint(l.copy);
  w->EndArray();
  w->Key("retried");
  w->BeginArray();
  for (const SegmentLineage& l : lineage) w->Bool(l.retried);
  w->EndArray();
  w->Key("frames");
  w->BeginArray();
  for (const SegmentLineage& l : lineage) w->Uint(l.frames);
  w->EndArray();
  w->Key("first_lsn");
  w->BeginArray();
  for (const SegmentLineage& l : lineage) w->Uint(l.first_lsn);
  w->EndArray();
  w->Key("last_lsn");
  w->BeginArray();
  for (const SegmentLineage& l : lineage) w->Uint(l.last_lsn);
  w->EndArray();
  w->EndObject();
}

StatusOr<std::vector<AuditEntry>> ParseAuditJournal(std::string_view text) {
  std::vector<AuditEntry> entries;
  size_t pos = 0;
  uint64_t line_no = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) break;  // torn trailing append: legal
    ++line_no;
    AuditEntry e;
    if (!ParseLine(text.substr(pos, nl - pos), &e)) {
      return CorruptionError("audit journal line " + std::to_string(line_no) +
                             ": bad checksum or malformed entry");
    }
    if (e.seq != entries.size() + 1) {
      return CorruptionError(
          "audit journal line " + std::to_string(line_no) + ": sequence " +
          std::to_string(e.seq) + " where " +
          std::to_string(entries.size() + 1) +
          " was expected (lost or reordered entries)");
    }
    entries.push_back(std::move(e));
    pos = nl + 1;
  }
  return entries;
}

Status VerifyAuditStructure(const std::vector<AuditEntry>& entries) {
  bool ckpt_open = false;
  uint64_t ckpt_id = 0;
  bool rec_open = false;
  for (const AuditEntry& e : entries) {
    auto fail = [&e](std::string_view why) {
      return CorruptionError("audit seq " + std::to_string(e.seq) + " (" +
                             e.event + "): " + std::string(why));
    };
    TraceEventType type;
    if (!TraceEventTypeFromName(e.event, &type) ||
        !TraceEventSpecFor(type).journaled) {
      return fail("unknown event");
    }
    for (const TraceFieldSpec& f : TraceEventSpecFor(type).fields) {
      if (f.name == nullptr) break;
      if (e.object.Find(f.name) == nullptr) {
        return fail("missing field '" + std::string(f.name) + "'");
      }
    }
    bool is_ckpt = e.event.rfind("ckpt.", 0) == 0;
    if (is_ckpt && rec_open) {
      return fail("checkpoint event inside an open recovery chain");
    }
    if (e.event == "ckpt.begin") {
      if (ckpt_open) return fail("nested checkpoint begin");
      ckpt_open = true;
      ckpt_id = AsU64(*e.object.Find("ckpt"));
    } else if (e.event == "ckpt.flush" || e.event == "ckpt.degraded" ||
               e.event == "ckpt.end" || e.event == "ckpt.abort") {
      if (!ckpt_open) return fail("no open checkpoint chain");
      if (AsU64(*e.object.Find("ckpt")) != ckpt_id) {
        return fail("checkpoint id does not match the open chain (" +
                    std::to_string(ckpt_id) + ")");
      }
      if (e.event == "ckpt.end" || e.event == "ckpt.abort") ckpt_open = false;
    } else if (e.event == "ckpt.log_cut") {
      // Runs after the chain committed; legal anywhere outside recovery.
    } else if (e.event == "recovery.begin") {
      // An open recovery chain here is legal: instant recovery serves
      // transactions with its chain still open (recovery.end is only
      // journaled when the on-demand drain completes), and a crash during
      // that window severs the chain just as it severs a checkpoint's.
      ckpt_open = false;
      rec_open = true;
    } else {  // recovery.* other than begin
      if (!rec_open) return fail("recovery event outside a recovery chain");
      if (e.event == "recovery.end" || e.event == "recovery.error") {
        rec_open = false;
      }
    }
  }
  return Status::OK();
}

namespace {

// Dump-side member lookup that reports what was missing instead of
// defaulting: the cross-check must not silently pass on a malformed dump.
StatusOr<const JsonValue*> Member(const JsonValue& obj, std::string_view key,
                                  std::string_view where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return CorruptionError("dump member " + std::string(where) + "." +
                           std::string(key) + " is missing");
  }
  return v;
}

// A journal line is plain JSON under a CRC anyone can recompute, so before
// any per-segment array of a recovery.lineage payload is indexed, all six
// must be present and hold `segments` entries.
Status CheckLineageShape(const JsonValue* lineage) {
  if (lineage == nullptr) {
    return CorruptionError("recovery.lineage has no payload");
  }
  const JsonValue* segments = lineage->Find("segments");
  if (segments == nullptr || !segments->is_number()) {
    return CorruptionError("recovery.lineage has no segment count");
  }
  for (const char* key : {"checkpoint", "copy", "retried", "frames",
                          "first_lsn", "last_lsn"}) {
    const JsonValue* a = lineage->Find(key);
    if (a == nullptr || !a->is_array() ||
        static_cast<double>(a->array_items().size()) !=
            segments->number_value()) {
      return CorruptionError("recovery.lineage array '" + std::string(key) +
                             "' does not hold one entry per segment");
    }
  }
  return Status::OK();
}

}  // namespace

Status VerifyAuditAgainstDump(const std::vector<AuditEntry>& entries,
                              const JsonValue& dump) {
  const JsonValue* audit = dump.Find("audit");
  if (audit == nullptr || audit->is_null()) {
    return CorruptionError(
        "dump has no audit member: engine ran without the provenance "
        "journal, nothing to cross-check");
  }
  const JsonValue* next_seq = audit->FindPath({"journal", "next_seq"});
  if (next_seq == nullptr || !next_seq->is_number()) {
    return CorruptionError("dump member audit.journal.next_seq is missing");
  }
  uint64_t last_seq = entries.empty() ? 0 : entries.back().seq;
  if (AsU64(*next_seq) != last_seq + 1) {
    return CorruptionError(
        "journal ends at seq " + std::to_string(last_seq) +
        " but the engine's next sequence is " +
        std::to_string(AsU64(*next_seq)) + ": lost or foreign entries");
  }

  // Locate the last completed recovery chain's claims. Lineage and end
  // events are only journaled on success, so the last of each belongs to
  // the same chain the engine's dump.recovery member describes.
  const AuditEntry* end = nullptr;
  const AuditEntry* lineage = nullptr;
  for (const AuditEntry& e : entries) {
    if (e.event == "recovery.end") end = &e;
    if (e.event == "recovery.lineage") lineage = &e;
  }

  const JsonValue* rec = dump.Find("recovery");
  if (rec == nullptr || rec->is_null()) {
    if (end != nullptr) {
      return CorruptionError(
          "journal claims a completed recovery (seq " +
          std::to_string(end->seq) + ") but the engine has performed none");
    }
    return Status::OK();
  }
  // An instant recovery that is still draining has a legitimately open
  // chain: the lineage and recovery.end land only when the last segment
  // materializes, so the dump's recovery claims cannot be cross-checked
  // yet. Structure verification above still covers the journal itself.
  const JsonValue* pending =
      dump.FindPath({"availability", "pending_segments"});
  if (pending != nullptr && pending->is_number() &&
      pending->number_value() > 0) {
    return Status::OK();
  }
  if (end == nullptr || lineage == nullptr) {
    return CorruptionError(
        "engine recovered but the journal holds no completed recovery "
        "chain (recovery.lineage + recovery.end)");
  }

  // recovery.end vs the engine's own RecoveryStats.
  struct Pair {
    std::string_view journal_key;
    std::string_view dump_key;
  };
  for (Pair p : {Pair{"checkpoint", "checkpoint"}, Pair{"copy", "copy"},
                 Pair{"applies", "updates_applied"},
                 Pair{"txns", "txns_redone"}}) {
    MMDB_ASSIGN_OR_RETURN(const JsonValue* want,
                          Member(*rec, p.dump_key, "recovery"));
    const JsonValue* got = end->object.Find(p.journal_key);
    if (got == nullptr || AsU64(*got) != AsU64(*want)) {
      return CorruptionError(
          "recovery.end." + std::string(p.journal_key) + " = " +
          (got != nullptr ? std::to_string(AsU64(*got)) : "<missing>") +
          " diverges from the engine's " + std::string(p.dump_key) + " = " +
          std::to_string(AsU64(*want)));
    }
  }
  MMDB_ASSIGN_OR_RETURN(const JsonValue* fell_back,
                        Member(*rec, "fell_back", "recovery"));
  const JsonValue* jfb = end->object.Find("fell_back");
  if (jfb == nullptr || jfb->bool_value() != fell_back->bool_value()) {
    return CorruptionError(
        "recovery.end.fell_back diverges from the engine's fallback record");
  }

  // The journal's lineage must be byte-identical (after a parse round
  // trip) to the lineage the engine actually recovered.
  const JsonValue* dump_lineage = audit->Find("lineage");
  if (dump_lineage == nullptr || dump_lineage->is_null()) {
    return CorruptionError(
        "engine recovered but dump member audit.lineage is null");
  }
  const JsonValue* journal_lineage = lineage->object.Find("lineage");
  MMDB_RETURN_IF_ERROR(CheckLineageShape(journal_lineage));
  if (journal_lineage->Dump() != dump_lineage->Dump()) {
    return CorruptionError(
        "recovery.lineage (seq " + std::to_string(lineage->seq) +
        ") diverges from the engine's recovered per-segment lineage");
  }

  // Independent tallies: the lineage's applied-frame total and retry flags
  // are accumulated per segment bucket during replay, while
  // updates_applied / segments_retried are counted by separate code paths.
  const JsonValue* frames = journal_lineage->Find("frames");
  const JsonValue* retried = journal_lineage->Find("retried");
  const JsonValue* last_lsn = journal_lineage->Find("last_lsn");
  uint64_t frame_total = 0;
  for (const JsonValue& f : frames->array_items()) frame_total += AsU64(f);
  MMDB_ASSIGN_OR_RETURN(const JsonValue* applied,
                        Member(*rec, "updates_applied", "recovery"));
  if (frame_total != AsU64(*applied)) {
    return CorruptionError("lineage claims " + std::to_string(frame_total) +
                           " applied frames but the engine applied " +
                           std::to_string(AsU64(*applied)));
  }
  uint64_t retried_total = 0;
  for (const JsonValue& r : retried->array_items()) {
    if (r.bool_value()) ++retried_total;
  }
  MMDB_ASSIGN_OR_RETURN(const JsonValue* retried_want,
                        Member(*rec, "segments_retried", "recovery"));
  if (retried_total != AsU64(*retried_want)) {
    return CorruptionError("lineage marks " + std::to_string(retried_total) +
                           " segments retried but the engine retried " +
                           std::to_string(AsU64(*retried_want)));
  }
  const JsonValue* end_lsn = end->object.Find("last_lsn");
  for (const JsonValue& l : last_lsn->array_items()) {
    if (AsU64(l) > AsU64(*end_lsn)) {
      return CorruptionError(
          "lineage replays past the recovery's last LSN " +
          std::to_string(AsU64(*end_lsn)));
    }
  }

  // Without a fallback every segment must come from the one restored copy.
  if (!fell_back->bool_value()) {
    const JsonValue* ckpts = journal_lineage->Find("checkpoint");
    const JsonValue* copies = journal_lineage->Find("copy");
    uint64_t want_ckpt = AsU64(*rec->Find("checkpoint"));
    uint64_t want_copy = AsU64(*rec->Find("copy"));
    for (size_t i = 0; i < ckpts->array_items().size(); ++i) {
      if (AsU64(ckpts->array_items()[i]) != want_ckpt ||
          AsU64(copies->array_items()[i]) != want_copy ||
          retried->array_items()[i].bool_value()) {
        return CorruptionError(
            "segment " + std::to_string(i) +
            " claims a provenance other than the restored checkpoint, but "
            "no fallback was recorded");
      }
    }
  }
  return Status::OK();
}

Status VerifyAuditJournal(std::string_view journal_text,
                          const JsonValue* dump) {
  if (dump != nullptr) {
    const JsonValue* errs =
        dump->FindPath({"audit", "journal", "append_errors"});
    if (errs != nullptr && errs->number_value() > 0) {
      // A fault landed on the journal itself; its tail is untrustworthy by
      // the engine's own admission, so there is nothing sound to verify.
      return Status::OK();
    }
  }
  MMDB_ASSIGN_OR_RETURN(std::vector<AuditEntry> entries,
                        ParseAuditJournal(journal_text));
  MMDB_RETURN_IF_ERROR(VerifyAuditStructure(entries));
  if (dump != nullptr) {
    MMDB_RETURN_IF_ERROR(VerifyAuditAgainstDump(entries, *dump));
  }
  return Status::OK();
}

StatusOr<SegmentProvenance> ExplainSegment(
    const std::vector<AuditEntry>& entries, SegmentId segment) {
  const AuditEntry* lineage = nullptr;
  double chain_begin_t = 0.0;
  double recovered_t = 0.0;
  for (const AuditEntry& e : entries) {
    if (e.event == "recovery.begin") chain_begin_t = e.t;
    if (e.event == "recovery.lineage") {
      lineage = &e;
      recovered_t = chain_begin_t;
    }
  }
  if (lineage == nullptr) {
    return NotFoundError(
        "journal holds no recovery lineage; nothing to explain");
  }
  const JsonValue* l = lineage->object.Find("lineage");
  MMDB_RETURN_IF_ERROR(CheckLineageShape(l));
  const JsonValue* ckpts = l->Find("checkpoint");
  const JsonValue* copies = l->Find("copy");
  const JsonValue* retried = l->Find("retried");
  const JsonValue* frames = l->Find("frames");
  const JsonValue* first_lsn = l->Find("first_lsn");
  const JsonValue* last_lsn = l->Find("last_lsn");
  if (segment >= ckpts->array_items().size()) {
    return OutOfRangeError("segment " + std::to_string(segment) +
                           " out of range: lineage covers " +
                           std::to_string(ckpts->array_items().size()) +
                           " segments");
  }
  SegmentProvenance p;
  p.segment = segment;
  p.recovered_t = recovered_t;
  p.lineage.checkpoint_id = AsU64(ckpts->array_items()[segment]);
  p.lineage.copy = static_cast<uint32_t>(AsU64(copies->array_items()[segment]));
  p.lineage.retried = retried->array_items()[segment].bool_value();
  p.lineage.frames = AsU64(frames->array_items()[segment]);
  p.lineage.first_lsn = AsU64(first_lsn->array_items()[segment]);
  p.lineage.last_lsn = AsU64(last_lsn->array_items()[segment]);

  // Walk back through the journal for the restored checkpoint's own chain:
  // its begin/end times, algorithm, and how many aborted attempts preceded
  // the completed one (retries reuse the id).
  if (p.lineage.checkpoint_id != 0) {
    double begin_t = 0.0;
    std::string algorithm;
    for (const AuditEntry& e : entries) {
      if (e.seq >= lineage->seq) break;
      const JsonValue* id = e.object.Find("ckpt");
      if (id == nullptr || AsU64(*id) != p.lineage.checkpoint_id) continue;
      if (e.event == "ckpt.begin") {
        begin_t = e.t;
        const JsonValue* algo = e.object.Find("algorithm");
        if (algo != nullptr) algorithm = algo->string_value();
      } else if (e.event == "ckpt.abort") {
        ++p.checkpoint_aborted_attempts;
      } else if (e.event == "ckpt.end") {
        p.checkpoint_in_journal = true;
        p.checkpoint_begin_t = begin_t;
        p.checkpoint_end_t = e.t;
        p.checkpoint_algorithm = algorithm;
      }
    }
  }
  return p;
}

}  // namespace mmdb
