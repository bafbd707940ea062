#include "durability/codec.h"

#include <limits>
#include <unordered_map>

#include "storage/dict.h"

namespace dvms {

namespace {

/// Caps any decoded element count so a corrupted length field cannot drive
/// a multi-gigabyte allocation before the per-element reads fail.
constexpr uint64_t kMaxDecodedCount = 1ull << 28;

/// First u32 of a columnar-format table. The legacy row-wise format leads
/// with its schema column count, which DecodeSchema rejects above
/// kMaxDecodedCount (1<<28) — this value sits far above that, so the two
/// formats are distinguishable from the first field.
constexpr uint32_t kColumnarMagic = 0xC0117A61u;
constexpr uint8_t kColumnarVersion = 1;

Status CountError(uint64_t n, const char* what) {
  return Status::ExecutionError("durability decode: implausible " +
                                std::string(what) + " count " +
                                std::to_string(n));
}

}  // namespace

void BinaryWriter::PutU32(uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out_.append(b, 4);
}

void BinaryWriter::PatchU32(size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) out_[at + i] = static_cast<char>(v >> (8 * i));
}

void BinaryWriter::PutU64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out_.append(b, 8);
}

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BinaryWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

void BinaryWriter::PutBytes(const void* data, size_t n) {
  out_.append(static_cast<const char*>(data), n);
}

Status BinaryReader::Need(size_t n) const {
  if (n_ - pos_ < n) {
    return Status::ExecutionError(
        "durability decode: truncated payload (need " + std::to_string(n) +
        " bytes, have " + std::to_string(n_ - pos_) + ")");
  }
  return Status::OK();
}

Result<uint8_t> BinaryReader::GetU8() {
  DVMS_RETURN_IF_ERROR(Need(1));
  return p_[pos_++];
}

Result<uint32_t> BinaryReader::GetU32() {
  DVMS_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::GetU64() {
  DVMS_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> BinaryReader::GetI64() {
  DVMS_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> BinaryReader::GetDouble() {
  DVMS_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<bool> BinaryReader::GetBool() {
  DVMS_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  return v != 0;
}

Result<std::string> BinaryReader::GetString() {
  DVMS_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  DVMS_RETURN_IF_ERROR(Need(len));
  std::string s(reinterpret_cast<const char*>(p_ + pos_), len);
  pos_ += len;
  return s;
}

// ---- Value / Row / Schema / Table ----

void EncodeValue(const Value& v, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->PutBool(v.bool_value());
      break;
    case ValueType::kInt64:
      w->PutI64(v.int_value());
      break;
    case ValueType::kDouble:
      w->PutDouble(v.double_value());
      break;
    case ValueType::kString:
      w->PutString(v.string_value());
      break;
  }
}

Result<Value> DecodeValue(BinaryReader* r) {
  DVMS_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      DVMS_ASSIGN_OR_RETURN(bool b, r->GetBool());
      return Value::Bool(b);
    }
    case ValueType::kInt64: {
      DVMS_ASSIGN_OR_RETURN(int64_t i, r->GetI64());
      return Value::Int(i);
    }
    case ValueType::kDouble: {
      DVMS_ASSIGN_OR_RETURN(double d, r->GetDouble());
      return Value::Double(d);
    }
    case ValueType::kString: {
      DVMS_ASSIGN_OR_RETURN(std::string s, r->GetString());
      return Value::String(std::move(s));
    }
  }
  return Status::ExecutionError("durability decode: unknown value tag " +
                                std::to_string(tag));
}

void EncodeRow(const Row& row, BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) EncodeValue(v, w);
}

Result<Row> DecodeRow(BinaryReader* r) {
  DVMS_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  if (n > kMaxDecodedCount) return CountError(n, "row value");
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    DVMS_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    row.push_back(std::move(v));
  }
  return row;
}

void EncodeSchema(const Schema& schema, BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const Column& col : schema.columns()) {
    w->PutString(col.name);
    w->PutU8(static_cast<uint8_t>(col.type));
  }
}

namespace {

Result<Schema> DecodeSchemaBody(uint32_t n, BinaryReader* r) {
  if (n > kMaxDecodedCount) return CountError(n, "column");
  std::vector<Column> columns;
  columns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column col;
    DVMS_ASSIGN_OR_RETURN(col.name, r->GetString());
    DVMS_ASSIGN_OR_RETURN(uint8_t type, r->GetU8());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::ExecutionError("durability decode: unknown column type " +
                                    std::to_string(type));
    }
    col.type = static_cast<ValueType>(type);
    columns.push_back(std::move(col));
  }
  return Schema(std::move(columns));
}

}  // namespace

Result<Schema> DecodeSchema(BinaryReader* r) {
  DVMS_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  return DecodeSchemaBody(n, r);
}

void EncodeTableLegacy(const Table& table, BinaryWriter* w) {
  EncodeSchema(table.schema(), w);
  w->PutU64(table.num_rows());
  for (const Row& row : table.rows()) EncodeRow(row, w);
}

void EncodeTable(const Table& table, BinaryWriter* w) {
  if (table.IsRagged()) {
    // Ragged tables carry per-row arity the columnar layout flattens away;
    // the row-wise format preserves them exactly.
    EncodeTableLegacy(table, w);
    return;
  }
  w->PutU32(kColumnarMagic);
  w->PutU8(kColumnarVersion);
  EncodeSchema(table.schema(), w);
  const size_t n = table.num_rows();
  w->PutU64(n);
  w->PutU32(static_cast<uint32_t>(table.num_columns()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnVec& col = table.col(c);
    w->PutU8(static_cast<uint8_t>(col.enc()));
    w->PutU8(col.all_valid() ? 0 : 1);
    if (!col.all_valid()) {
      for (uint64_t word : col.validity()) w->PutU64(word);
    }
    switch (col.enc()) {
      case ColumnVec::Enc::kEmpty:
        break;  // every cell is NULL; validity said so
      case ColumnVec::Enc::kInt64:
        for (int64_t v : col.ints()) w->PutI64(v);
        break;
      case ColumnVec::Enc::kDouble:
        for (double v : col.doubles()) w->PutDouble(v);
        break;
      case ColumnVec::Enc::kBool:
        for (uint8_t v : col.bools()) w->PutU8(v);
        break;
      case ColumnVec::Enc::kDict: {
        // Remap global dictionary ids to first-occurrence order so the
        // encoded bytes don't depend on what else this process interned.
        std::unordered_map<uint32_t, uint32_t> remap;
        std::vector<uint32_t> order;   // global ids, first occurrence
        std::vector<uint32_t> locals(n, 0);
        for (size_t i = 0; i < n; ++i) {
          if (col.IsNull(i)) continue;
          uint32_t gid = col.dict_ids()[i];
          auto it = remap.find(gid);
          if (it == remap.end()) {
            it = remap.emplace(gid, static_cast<uint32_t>(order.size())).first;
            order.push_back(gid);
          }
          locals[i] = it->second;
        }
        w->PutU32(static_cast<uint32_t>(order.size()));
        for (uint32_t gid : order) w->PutString(strdict::Lookup(gid));
        for (uint32_t local : locals) w->PutU32(local);
        break;
      }
      case ColumnVec::Enc::kVariant:
        for (size_t i = 0; i < n; ++i) {
          if (!col.IsNull(i)) EncodeValue(col.variants()[i], w);
        }
        break;
    }
  }
}

namespace {

Result<Table> DecodeColumnarTable(BinaryReader* r) {
  DVMS_ASSIGN_OR_RETURN(uint8_t version, r->GetU8());
  if (version != kColumnarVersion) {
    return Status::ExecutionError(
        "durability decode: unknown columnar table version " +
        std::to_string(version));
  }
  DVMS_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  DVMS_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > kMaxDecodedCount) return CountError(n, "row");
  DVMS_ASSIGN_OR_RETURN(uint32_t ncols, r->GetU32());
  if (ncols > kMaxDecodedCount) return CountError(ncols, "data column");
  std::vector<ColumnVec> cols(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    DVMS_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
    if (tag > static_cast<uint8_t>(ColumnVec::Enc::kVariant)) {
      return Status::ExecutionError(
          "durability decode: unknown column encoding " + std::to_string(tag));
    }
    const ColumnVec::Enc enc = static_cast<ColumnVec::Enc>(tag);
    DVMS_ASSIGN_OR_RETURN(uint8_t has_nulls, r->GetU8());
    std::vector<uint64_t> validity;
    if (has_nulls != 0) {
      validity.resize((n + 63) / 64);
      for (uint64_t& word : validity) {
        DVMS_ASSIGN_OR_RETURN(word, r->GetU64());
      }
    }
    auto is_null = [&](uint64_t i) {
      return has_nulls != 0 && (validity[i >> 6] & (1ull << (i & 63))) == 0;
    };
    ColumnVec& col = cols[c];
    switch (enc) {
      case ColumnVec::Enc::kEmpty:
        col.AppendNulls(n);
        break;
      case ColumnVec::Enc::kInt64:
        for (uint64_t i = 0; i < n; ++i) {
          DVMS_ASSIGN_OR_RETURN(int64_t v, r->GetI64());
          if (is_null(i)) {
            col.AppendNull();
          } else {
            col.AppendInt64(v);
          }
        }
        break;
      case ColumnVec::Enc::kDouble:
        for (uint64_t i = 0; i < n; ++i) {
          DVMS_ASSIGN_OR_RETURN(double v, r->GetDouble());
          if (is_null(i)) {
            col.AppendNull();
          } else {
            col.AppendDouble(v);
          }
        }
        break;
      case ColumnVec::Enc::kBool:
        for (uint64_t i = 0; i < n; ++i) {
          DVMS_ASSIGN_OR_RETURN(uint8_t v, r->GetU8());
          if (is_null(i)) {
            col.AppendNull();
          } else {
            col.AppendBool(v != 0);
          }
        }
        break;
      case ColumnVec::Enc::kDict: {
        DVMS_ASSIGN_OR_RETURN(uint32_t dict_size, r->GetU32());
        if (dict_size > kMaxDecodedCount) {
          return CountError(dict_size, "dictionary entry");
        }
        // Re-intern into this process's global dictionary.
        std::vector<uint32_t> global(dict_size);
        for (uint32_t d = 0; d < dict_size; ++d) {
          DVMS_ASSIGN_OR_RETURN(std::string s, r->GetString());
          global[d] = strdict::Intern(s);
        }
        for (uint64_t i = 0; i < n; ++i) {
          DVMS_ASSIGN_OR_RETURN(uint32_t local, r->GetU32());
          if (is_null(i)) {
            col.AppendNull();
          } else if (local >= dict_size) {
            return Status::ExecutionError(
                "durability decode: dictionary id " + std::to_string(local) +
                " out of range");
          } else {
            col.AppendDictId(global[local]);
          }
        }
        break;
      }
      case ColumnVec::Enc::kVariant:
        for (uint64_t i = 0; i < n; ++i) {
          if (is_null(i)) {
            col.AppendNull();
          } else {
            DVMS_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
            col.Append(v);
          }
        }
        break;
    }
  }
  Table table(std::move(schema));
  DVMS_RETURN_IF_ERROR(table.InstallColumns(std::move(cols), n));
  return table;
}

}  // namespace

Result<Table> DecodeTable(BinaryReader* r) {
  DVMS_ASSIGN_OR_RETURN(uint32_t first, r->GetU32());
  if (first == kColumnarMagic) return DecodeColumnarTable(r);
  // Legacy row-wise format: the first u32 was the schema column count.
  DVMS_ASSIGN_OR_RETURN(Schema schema, DecodeSchemaBody(first, r));
  DVMS_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > kMaxDecodedCount) return CountError(n, "row");
  std::vector<Row> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DVMS_ASSIGN_OR_RETURN(Row row, DecodeRow(r));
    rows.push_back(std::move(row));
  }
  return Table(std::move(schema), std::move(rows));
}

}  // namespace dvms
