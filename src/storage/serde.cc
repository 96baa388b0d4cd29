#include "storage/serde.h"

#include <cstring>

#include "common/string_util.h"

namespace pctagg {
namespace storage {

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void AppendLenPrefixed(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

bool ByteReader::ReadU8(uint8_t* v) {
  if (remaining() < 1) return false;
  *v = static_cast<uint8_t>(*p_++);
  return true;
}

bool ByteReader::ReadU32(uint32_t* v) {
  if (remaining() < 4) return false;
  std::memcpy(v, p_, 4);
  p_ += 4;
  return true;
}

bool ByteReader::ReadU64(uint64_t* v) {
  if (remaining() < 8) return false;
  std::memcpy(v, p_, 8);
  p_ += 8;
  return true;
}

bool ByteReader::ReadLenPrefixed(std::string_view* s) {
  uint32_t len;
  if (remaining() < 4) return false;
  std::memcpy(&len, p_, 4);
  if (remaining() - 4 < len) return false;
  p_ += 4;
  *s = std::string_view(p_, len);
  p_ += len;
  return true;
}

bool ByteReader::ReadBytes(size_t n, std::string_view* s) {
  if (remaining() < n) return false;
  *s = std::string_view(p_, n);
  p_ += n;
  return true;
}

bool ByteReader::Skip(size_t n) {
  if (remaining() < n) return false;
  p_ += n;
  return true;
}

namespace {

// Packs the engine's byte-per-row validity into an LSB-first bitmap.
void AppendValidityBitmap(const std::vector<uint8_t>& validity,
                          std::string* out) {
  const size_t n = validity.size();
  const size_t bytes = (n + 7) / 8;
  size_t start = out->size();
  out->resize(start + bytes, '\0');
  char* dst = out->data() + start;
  const uint8_t* src = validity.data();
  // Eight 0/1 bytes at a time: the multiply gathers byte i's low bit into
  // result bit 56+i (each diagonal term b_i * 2^(8i) * 2^(56-7i) lands on a
  // distinct bit and the off-diagonal terms stay below bit 56 or overflow
  // out, so no carries collide).
  const size_t full = n / 8;
  for (size_t i = 0; i < full; ++i) {
    uint64_t chunk;
    __builtin_memcpy(&chunk, src + i * 8, 8);
    dst[i] = static_cast<char>((chunk * 0x0102040810204080ull) >> 56);
  }
  for (size_t r = full * 8; r < n; ++r) {
    if (src[r]) dst[r >> 3] |= static_cast<char>(1u << (r & 7));
  }
}

bool ReadValidityBitmap(ByteReader* in, size_t num_rows,
                        std::vector<uint8_t>* validity) {
  std::string_view bits;
  if (!in->ReadBytes((num_rows + 7) / 8, &bits)) return false;
  validity->resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    (*validity)[r] =
        (static_cast<uint8_t>(bits[r >> 3]) >> (r & 7)) & 1u;
  }
  return true;
}

Status Corrupt(const char* what) {
  return Status::DataLoss(std::string("corrupt column payload: ") + what);
}

}  // namespace

void EncodeColumn(const Column& column, std::string* out) {
  const size_t n = column.size();
  AppendU64(out, n);
  AppendValidityBitmap(column.validity(), out);
  switch (column.type()) {
    case DataType::kInt64:
      out->append(reinterpret_cast<const char*>(column.int64_data().data()),
                  n * sizeof(int64_t));
      break;
    case DataType::kFloat64:
      out->append(reinterpret_cast<const char*>(column.float64_data().data()),
                  n * sizeof(double));
      break;
    case DataType::kString: {
      const Dictionary& dict = *column.dict();
      const uint32_t dict_count = static_cast<uint32_t>(dict.size());
      AppendU32(out, dict_count);
      for (uint32_t code = 0; code < dict_count; ++code) {
        AppendLenPrefixed(out, dict.value(code));
      }
      out->append(reinterpret_cast<const char*>(column.codes().data()),
                  n * sizeof(uint32_t));
      break;
    }
  }
}

Result<Column> DecodeColumn(ByteReader* in, DataType type) {
  uint64_t n;
  if (!in->ReadU64(&n)) return Corrupt("truncated row count");
  // A length field can claim anything; make sure the bytes exist before
  // sizing vectors off it.
  std::vector<uint8_t> validity;
  if (!ReadValidityBitmap(in, n, &validity)) {
    return Corrupt("truncated null bitmap");
  }
  switch (type) {
    case DataType::kInt64: {
      std::string_view raw;
      if (!in->ReadBytes(n * sizeof(int64_t), &raw)) {
        return Corrupt("truncated INT64 values");
      }
      std::vector<int64_t> data(n);
      // An empty vector's data() may be null, which memcpy must not get.
      if (n > 0) std::memcpy(data.data(), raw.data(), raw.size());
      return Column::FromInt64(std::move(data), std::move(validity));
    }
    case DataType::kFloat64: {
      std::string_view raw;
      if (!in->ReadBytes(n * sizeof(double), &raw)) {
        return Corrupt("truncated FLOAT64 values");
      }
      std::vector<double> data(n);
      if (n > 0) std::memcpy(data.data(), raw.data(), raw.size());
      return Column::FromFloat64(std::move(data), std::move(validity));
    }
    case DataType::kString: {
      uint32_t dict_count;
      if (!in->ReadU32(&dict_count)) return Corrupt("truncated dictionary");
      auto dict = std::make_shared<Dictionary>();
      for (uint32_t i = 0; i < dict_count; ++i) {
        std::string_view s;
        if (!in->ReadLenPrefixed(&s)) {
          return Corrupt("truncated dictionary entry");
        }
        // GetOrAdd in written order reassigns exactly the original codes
        // (the dictionary is insert-ordered and codes are dense).
        if (dict->GetOrAdd(s) != i) {
          return Corrupt("duplicate dictionary entry");
        }
      }
      std::string_view raw;
      if (!in->ReadBytes(n * sizeof(uint32_t), &raw)) {
        return Corrupt("truncated code vector");
      }
      std::vector<uint32_t> codes(n);
      if (n > 0) std::memcpy(codes.data(), raw.data(), raw.size());
      for (size_t r = 0; r < n; ++r) {
        if (validity[r] && codes[r] >= dict_count) {
          return Corrupt("code out of dictionary range");
        }
      }
      return Column::FromCodes(std::move(codes), std::move(validity),
                               std::move(dict));
    }
  }
  return Corrupt("unknown column type");
}

void EncodeSchema(const Schema& schema, std::string* out) {
  AppendU32(out, static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnDef& def : schema.columns()) {
    AppendLenPrefixed(out, def.name);
    AppendU8(out, static_cast<uint8_t>(def.type));
  }
}

Result<Schema> DecodeSchema(ByteReader* in) {
  uint32_t ncols;
  if (!in->ReadU32(&ncols)) return Corrupt("truncated column count");
  Schema schema;
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string_view name;
    uint8_t type;
    if (!in->ReadLenPrefixed(&name) || !in->ReadU8(&type)) {
      return Corrupt("truncated column definition");
    }
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Corrupt("unknown data type");
    }
    schema.AddColumn({std::string(name), static_cast<DataType>(type)});
  }
  return schema;
}

void EncodeTable(const Table& table, std::string* out) {
  EncodeSchema(table.schema(), out);
  for (size_t i = 0; i < table.num_columns(); ++i) {
    EncodeColumn(table.column(i), out);
  }
}

void EncodeTablePieces(const Table& table, std::string* scratch,
                       std::vector<TablePiece>* pieces,
                       size_t first_run_offset) {
  size_t run_start = first_run_offset;
  // Closes the scratch bytes accumulated since the last cut as one piece.
  auto cut = [&] {
    if (scratch->size() > run_start) {
      pieces->push_back({nullptr, run_start, scratch->size() - run_start});
    }
    run_start = scratch->size();
  };
  EncodeSchema(table.schema(), scratch);
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const Column& column = table.column(i);
    const size_t n = column.size();
    AppendU64(scratch, n);
    AppendValidityBitmap(column.validity(), scratch);
    switch (column.type()) {
      case DataType::kInt64:
        cut();
        pieces->push_back({column.int64_data().data(), 0, n * sizeof(int64_t)});
        break;
      case DataType::kFloat64:
        cut();
        pieces->push_back({column.float64_data().data(), 0, n * sizeof(double)});
        break;
      case DataType::kString: {
        const Dictionary& dict = *column.dict();
        const uint32_t dict_count = static_cast<uint32_t>(dict.size());
        AppendU32(scratch, dict_count);
        for (uint32_t code = 0; code < dict_count; ++code) {
          AppendLenPrefixed(scratch, dict.value(code));
        }
        cut();
        pieces->push_back({column.codes().data(), 0, n * sizeof(uint32_t)});
        break;
      }
    }
  }
  cut();
}

Result<Table> DecodeTable(ByteReader* in) {
  PCTAGG_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(in));
  std::vector<Column> columns;
  columns.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    PCTAGG_ASSIGN_OR_RETURN(Column c, DecodeColumn(in, schema.column(i).type));
    if (i > 0 && c.size() != columns[0].size()) {
      return Corrupt("column length mismatch");
    }
    columns.push_back(std::move(c));
  }
  return Table(std::move(schema), std::move(columns));
}

}  // namespace storage
}  // namespace pctagg
