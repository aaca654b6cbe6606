#include "wal/log_record.h"

#include "util/coding.h"
#include "util/json.h"
#include "util/string_util.h"

namespace mmdb {

LogRecord LogRecord::Update(TxnId txn, RecordId record, std::string image) {
  LogRecord r;
  r.type = LogRecordType::kUpdate;
  r.txn_id = txn;
  r.record_id = record;
  r.image = std::move(image);
  return r;
}

LogRecord LogRecord::Delta(TxnId txn, RecordId record, uint32_t field_offset,
                           int64_t delta) {
  LogRecord r;
  r.type = LogRecordType::kDelta;
  r.txn_id = txn;
  r.record_id = record;
  r.field_offset = field_offset;
  r.delta = delta;
  return r;
}

LogRecord LogRecord::Commit(TxnId txn) {
  LogRecord r;
  r.type = LogRecordType::kCommit;
  r.txn_id = txn;
  return r;
}

LogRecord LogRecord::Abort(TxnId txn) {
  LogRecord r;
  r.type = LogRecordType::kAbort;
  r.txn_id = txn;
  return r;
}

LogRecord LogRecord::BeginCheckpoint(CheckpointId id, Timestamp tau,
                                     std::vector<ActiveTxnEntry> active) {
  LogRecord r;
  r.type = LogRecordType::kBeginCheckpoint;
  r.checkpoint_id = id;
  r.timestamp = tau;
  r.active_txns = std::move(active);
  return r;
}

LogRecord LogRecord::EndCheckpoint(CheckpointId id) {
  LogRecord r;
  r.type = LogRecordType::kEndCheckpoint;
  r.checkpoint_id = id;
  return r;
}

void LogRecord::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type));
  PutVarint64(dst, lsn);
  PutVarint64(dst, txn_id);
  switch (type) {
    case LogRecordType::kUpdate:
      PutVarint64(dst, record_id);
      PutLengthPrefixed(dst, image);
      break;
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      break;
    case LogRecordType::kBeginCheckpoint:
      PutVarint64(dst, checkpoint_id);
      PutVarint64(dst, timestamp);
      PutVarint64(dst, active_txns.size());
      for (const ActiveTxnEntry& e : active_txns) {
        PutVarint64(dst, e.txn_id);
        PutVarint64(dst, e.first_lsn);
      }
      break;
    case LogRecordType::kEndCheckpoint:
      PutVarint64(dst, checkpoint_id);
      break;
    case LogRecordType::kDelta:
      PutVarint64(dst, record_id);
      PutVarint32(dst, field_offset);
      PutFixed64(dst, static_cast<uint64_t>(delta));
      break;
  }
}

namespace {

// The one payload parser behind both decoders. `full`, when given, also
// receives the bulk fields; without it they are walked and dropped, so the
// header decoder accepts exactly the payloads the full one does.
Status DecodePayload(std::string_view payload, LogRecordHeader* h,
                     LogRecord* full) {
  *h = LogRecordHeader();
  if (payload.empty()) return CorruptionError("empty log record payload");
  uint8_t raw_type = static_cast<uint8_t>(payload.front());
  payload.remove_prefix(1);
  if (raw_type < static_cast<uint8_t>(LogRecordType::kUpdate) ||
      raw_type > static_cast<uint8_t>(LogRecordType::kDelta)) {
    return CorruptionError(
        StringPrintf("unknown log record type %u", raw_type));
  }
  h->type = static_cast<LogRecordType>(raw_type);
  if (!GetVarint64(&payload, &h->lsn) || !GetVarint64(&payload, &h->txn_id)) {
    return CorruptionError("truncated log record header");
  }
  std::string_view image;
  uint64_t raw_delta = 0;
  Timestamp tau = 0;
  switch (h->type) {
    case LogRecordType::kUpdate:
      if (!GetVarint64(&payload, &h->record_id) ||
          !GetLengthPrefixed(&payload, &image)) {
        return CorruptionError("truncated update record");
      }
      h->image_size = image.size();
      break;
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      break;
    case LogRecordType::kBeginCheckpoint: {
      uint64_t count = 0;
      if (!GetVarint64(&payload, &h->checkpoint_id) ||
          !GetVarint64(&payload, &tau) || !GetVarint64(&payload, &count)) {
        return CorruptionError("truncated begin-checkpoint record");
      }
      // Each entry is two varints of at least one byte each: a count the
      // bytes left cannot hold never sizes the list.
      if (count > payload.size() / 2) {
        return CorruptionError(
            "begin-checkpoint active count overruns its payload");
      }
      if (full != nullptr) full->active_txns.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        ActiveTxnEntry e;
        if (!GetVarint64(&payload, &e.txn_id) ||
            !GetVarint64(&payload, &e.first_lsn)) {
          return CorruptionError("truncated active-transaction list");
        }
        if (full != nullptr) full->active_txns.push_back(e);
      }
      break;
    }
    case LogRecordType::kEndCheckpoint:
      if (!GetVarint64(&payload, &h->checkpoint_id)) {
        return CorruptionError("truncated end-checkpoint record");
      }
      break;
    case LogRecordType::kDelta:
      if (!GetVarint64(&payload, &h->record_id) ||
          !GetVarint32(&payload, &h->field_offset) ||
          !GetFixed64(&payload, &raw_delta)) {
        return CorruptionError("truncated delta record");
      }
      break;
  }
  if (!payload.empty()) {
    return CorruptionError("trailing bytes after log record payload");
  }
  if (full != nullptr) {
    full->type = h->type;
    full->lsn = h->lsn;
    full->txn_id = h->txn_id;
    full->record_id = h->record_id;
    full->image.assign(image.data(), image.size());
    full->field_offset = h->field_offset;
    full->delta = static_cast<int64_t>(raw_delta);
    full->checkpoint_id = h->checkpoint_id;
    full->timestamp = tau;
  }
  return Status::OK();
}

}  // namespace

Status LogRecordHeader::DecodeFrom(std::string_view payload,
                                   LogRecordHeader* out) {
  return DecodePayload(payload, out, nullptr);
}

Status LogRecord::DecodeFrom(std::string_view payload, LogRecord* out) {
  *out = LogRecord();
  LogRecordHeader header;
  return DecodePayload(payload, &header, out);
}

size_t LogRecord::EncodedSize() const {
  // Mirrors EncodeTo arithmetically — exact, without materializing the
  // bytes (this runs per Append to pre-reserve the frame).
  size_t size = 1 + VarintLength(lsn) + VarintLength(txn_id);
  switch (type) {
    case LogRecordType::kUpdate:
      size += VarintLength(record_id) + VarintLength(image.size()) +
              image.size();
      break;
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      break;
    case LogRecordType::kBeginCheckpoint:
      size += VarintLength(checkpoint_id) + VarintLength(timestamp) +
              VarintLength(active_txns.size());
      for (const ActiveTxnEntry& e : active_txns) {
        size += VarintLength(e.txn_id) + VarintLength(e.first_lsn);
      }
      break;
    case LogRecordType::kEndCheckpoint:
      size += VarintLength(checkpoint_id);
      break;
    case LogRecordType::kDelta:
      size += VarintLength(record_id) + VarintLength(field_offset) + 8;
      break;
  }
  return size;
}

std::string LogRecord::DebugString() const {
  switch (type) {
    case LogRecordType::kUpdate:
      return StringPrintf("UPDATE lsn=%llu txn=%llu rec=%llu (%zu bytes)",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(txn_id),
                          static_cast<unsigned long long>(record_id),
                          image.size());
    case LogRecordType::kCommit:
      return StringPrintf("COMMIT lsn=%llu txn=%llu",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(txn_id));
    case LogRecordType::kAbort:
      return StringPrintf("ABORT lsn=%llu txn=%llu",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(txn_id));
    case LogRecordType::kBeginCheckpoint:
      return StringPrintf("BEGIN_CKPT lsn=%llu id=%llu tau=%llu active=%zu",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(checkpoint_id),
                          static_cast<unsigned long long>(timestamp),
                          active_txns.size());
    case LogRecordType::kEndCheckpoint:
      return StringPrintf("END_CKPT lsn=%llu id=%llu",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(checkpoint_id));
    case LogRecordType::kDelta:
      return StringPrintf("DELTA lsn=%llu txn=%llu rec=%llu off=%u %+lld",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(txn_id),
                          static_cast<unsigned long long>(record_id),
                          field_offset, static_cast<long long>(delta));
  }
  return "INVALID";
}

void LogRecord::AppendJsonTo(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("type");
  writer->String(LogRecordTypeName(type));
  writer->Key("lsn");
  writer->Uint(lsn);
  switch (type) {
    case LogRecordType::kUpdate:
      writer->Key("txn");
      writer->Uint(txn_id);
      writer->Key("record");
      writer->Uint(record_id);
      writer->Key("image_bytes");
      writer->Uint(image.size());
      break;
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      writer->Key("txn");
      writer->Uint(txn_id);
      break;
    case LogRecordType::kBeginCheckpoint:
      writer->Key("checkpoint");
      writer->Uint(checkpoint_id);
      writer->Key("tau");
      writer->Uint(timestamp);
      writer->Key("active_txns");
      writer->BeginArray();
      for (const ActiveTxnEntry& e : active_txns) {
        writer->Uint(e.txn_id);
      }
      writer->EndArray();
      break;
    case LogRecordType::kEndCheckpoint:
      writer->Key("checkpoint");
      writer->Uint(checkpoint_id);
      break;
    case LogRecordType::kDelta:
      writer->Key("txn");
      writer->Uint(txn_id);
      writer->Key("record");
      writer->Uint(record_id);
      writer->Key("field_offset");
      writer->Uint(field_offset);
      writer->Key("delta");
      writer->Int(delta);
      break;
  }
  writer->EndObject();
}

}  // namespace mmdb
