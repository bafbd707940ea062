#ifndef DVMS_DURABILITY_CODEC_H_
#define DVMS_DURABILITY_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/table.h"

namespace dvms {

/// Append-only little-endian encoder for log-record and snapshot payloads.
/// Fixed-width integers keep the format trivially seekable; sizes here are
/// dominated by row data, not framing.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutString(const std::string& s);
  void PutBytes(const void* data, size_t n);

  /// Overwrites the u32 at byte offset `at` (written earlier by PutU32).
  void PatchU32(size_t at, uint32_t v);
  /// Drops everything from byte offset `n` on.
  void Truncate(size_t n) { out_.resize(n); }

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

/// Bounds-checked decoder over an immutable byte span. Every accessor
/// returns a Status/Result so a corrupted (but CRC-passing) payload can
/// never read out of bounds — decode failures surface as errors, not UB.
class BinaryReader {
 public:
  BinaryReader(const void* data, size_t n)
      : p_(static_cast<const uint8_t*>(data)), n_(n) {}
  explicit BinaryReader(const std::string& s) : BinaryReader(s.data(), s.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<bool> GetBool();
  Result<std::string> GetString();

  size_t remaining() const { return n_ - pos_; }
  bool AtEnd() const { return pos_ == n_; }

 private:
  Status Need(size_t n) const;

  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
};

// ---- Engine value-model codecs ----

void EncodeValue(const Value& v, BinaryWriter* w);
Result<Value> DecodeValue(BinaryReader* r);

void EncodeRow(const Row& row, BinaryWriter* w);
Result<Row> DecodeRow(BinaryReader* r);

void EncodeSchema(const Schema& schema, BinaryWriter* w);
Result<Schema> DecodeSchema(BinaryReader* r);

/// Encodes a table for snapshots. Non-ragged tables use the columnar v1
/// format (per-column typed payloads, validity bitmaps, and a local string
/// dictionary — ids are remapped to first-occurrence order so the bytes
/// are independent of the process's global dictionary history). Ragged
/// tables use the row-wise legacy format. DecodeTable reads both
/// transparently.
void EncodeTable(const Table& table, BinaryWriter* w);

/// The pre-columnar row-wise format (schema, row count, tagged values):
/// the only format for ragged tables, and what row-store-era snapshots
/// hold.
void EncodeTableLegacy(const Table& table, BinaryWriter* w);

Result<Table> DecodeTable(BinaryReader* r);

}  // namespace dvms

#endif  // DVMS_DURABILITY_CODEC_H_
