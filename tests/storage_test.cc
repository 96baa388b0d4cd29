// Tests for the durable storage subsystem's building blocks: CRC-32C
// vectors, primitive/column/table serde round trips, segment files (and
// their corruption detection), the manifest codec, WAL framing with
// torn-tail discard, StorageManager open/append/checkpoint/drop, and the
// DROP TABLE / CHECKPOINT SQL surface.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "sql/parser.h"
#include "storage/crc32c.h"
#include "storage/file_io.h"
#include "storage/manifest.h"
#include "storage/segment.h"
#include "storage/serde.h"
#include "storage/storage.h"
#include "storage/wal.h"

namespace pctagg {
namespace storage {
namespace {

// A scratch data directory, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/pctagg_storage_test_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

Table SampleTable() {
  Table t(Schema({{"k", DataType::kInt64},
                  {"v", DataType::kFloat64},
                  {"s", DataType::kString}}));
  t.AppendRow({Value::Int64(1), Value::Float64(1.5), Value::String("ca")});
  t.AppendRow({Value::Int64(2), Value::Null(), Value::String("or")});
  t.AppendRow({Value::Null(), Value::Float64(-2.25), Value::Null()});
  t.AppendRow({Value::Int64(4), Value::Float64(0.0), Value::String("ca")});
  return t;
}

void ExpectTablesBitIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    ASSERT_EQ(ca.type(), cb.type());
    EXPECT_EQ(ca.validity(), cb.validity()) << "column " << c;
    switch (ca.type()) {
      case DataType::kInt64:
        EXPECT_EQ(ca.int64_data(), cb.int64_data()) << "column " << c;
        break;
      case DataType::kFloat64:
        for (size_t r = 0; r < a.num_rows(); ++r) {
          if (ca.IsNull(r)) continue;
          EXPECT_EQ(ca.Float64At(r), cb.Float64At(r))
              << "column " << c << " row " << r;
        }
        break;
      case DataType::kString:
        // Codes too, not just payloads: recovery promises the same codes.
        EXPECT_EQ(ca.codes(), cb.codes()) << "column " << c;
        ASSERT_EQ(ca.dict()->size(), cb.dict()->size());
        for (uint32_t i = 0; i < ca.dict()->size(); ++i) {
          EXPECT_EQ(ca.dict()->value(i), cb.dict()->value(i));
        }
        break;
    }
  }
}

void CorruptByte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

// --- CRC-32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / iSCSI test vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "vertical and horizontal percentage aggregations";
  uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t split = Crc32c(data.data(), 10);
  split = Crc32c(split, data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskRoundTripsAndMoves) {
  uint32_t crc = Crc32c("123456789", 9);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  EXPECT_NE(MaskCrc(crc), crc);
  EXPECT_NE(MaskCrc(0), 0u);  // an all-zero block never validates
}

// --- Primitive serde --------------------------------------------------------

TEST(SerdeTest, PrimitiveRoundTrip) {
  std::string buf;
  AppendU8(&buf, 0xAB);
  AppendU32(&buf, 0xDEADBEEFu);
  AppendU64(&buf, 0x0123456789ABCDEFull);
  AppendLenPrefixed(&buf, "hello");
  ByteReader in(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string_view s;
  ASSERT_TRUE(in.ReadU8(&u8));
  ASSERT_TRUE(in.ReadU32(&u32));
  ASSERT_TRUE(in.ReadU64(&u64));
  ASSERT_TRUE(in.ReadLenPrefixed(&s));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(SerdeTest, ReaderRejectsUnderflow) {
  std::string buf;
  AppendU32(&buf, 7);
  ByteReader in(buf);
  uint64_t u64 = 0;
  EXPECT_FALSE(in.ReadU64(&u64));  // only 4 bytes available
  uint32_t u32 = 0;
  EXPECT_TRUE(in.ReadU32(&u32));  // cursor was left unchanged
  EXPECT_EQ(u32, 7u);
  std::string_view s;
  EXPECT_FALSE(in.ReadLenPrefixed(&s));
}

TEST(SerdeTest, TableRoundTripIsBitIdentical) {
  Table t = SampleTable();
  std::string buf;
  EncodeTable(t, &buf);
  ByteReader in(buf);
  Result<Table> back = DecodeTable(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(in.remaining(), 0u);
  ExpectTablesBitIdentical(t, *back);
}

TEST(SerdeTest, PiecesEncodingMatchesEncodeTableByteForByte) {
  Table t = SampleTable();
  std::string contiguous;
  EncodeTable(t, &contiguous);

  std::string scratch = "prefix";  // pre-existing bytes ride in piece one
  std::vector<TablePiece> pieces;
  EncodeTablePieces(t, &scratch, &pieces, /*first_run_offset=*/6);
  std::string assembled;
  for (const TablePiece& p : pieces) {
    const char* data = p.data != nullptr ? static_cast<const char*>(p.data)
                                         : scratch.data() + p.scratch_offset;
    assembled.append(data, p.size);
  }
  EXPECT_EQ(assembled, contiguous);
}

TEST(SerdeTest, EmptyTableRoundTrips) {
  Table t(Schema({{"a", DataType::kInt64}, {"s", DataType::kString}}));
  std::string buf;
  EncodeTable(t, &buf);
  ByteReader in(buf);
  Result<Table> back = DecodeTable(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->schema().ToString(), t.schema().ToString());
}

TEST(SerdeTest, DecodeRejectsTruncatedPayload) {
  Table t = SampleTable();
  std::string buf;
  EncodeTable(t, &buf);
  for (size_t cut : {buf.size() - 1, buf.size() / 2, size_t{3}}) {
    ByteReader in(buf.data(), cut);
    EXPECT_FALSE(DecodeTable(&in).ok()) << "cut at " << cut;
  }
}

TEST(SerdeTest, DecodeRejectsOutOfRangeDictCode) {
  Table t(Schema({{"s", DataType::kString}}));
  t.AppendRow({Value::String("x")});
  std::string buf;
  EncodeColumn(t.column(0), &buf);
  // Last 4 bytes are row 0's code; point it past the 1-entry dictionary.
  uint32_t bad = 7;
  std::memcpy(buf.data() + buf.size() - 4, &bad, 4);
  ByteReader in(buf);
  EXPECT_FALSE(DecodeColumn(&in, DataType::kString).ok());
}

// --- Segment files ----------------------------------------------------------

TEST(SegmentTest, WriteReadRoundTrip) {
  TempDir dir;
  Table t = SampleTable();
  std::string path = dir.File("t.seg");
  ASSERT_TRUE(WriteSegment(path, t).ok());
  Result<Table> back = ReadSegment(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectTablesBitIdentical(t, *back);
}

TEST(SegmentTest, DetectsBitRotAnywhere) {
  TempDir dir;
  std::string path = dir.File("t.seg");
  ASSERT_TRUE(WriteSegment(path, SampleTable()).ok());
  uint64_t size = FileSize(path).value();
  // Flip one byte at several offsets spanning magic, blocks and footer.
  for (uint64_t offset : {uint64_t{2}, size / 3, size / 2, size - 30,
                          size - 3}) {
    std::string copy = dir.File("corrupt.seg");
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    CorruptByte(copy, static_cast<size_t>(offset));
    Result<Table> r = ReadSegment(copy);
    EXPECT_FALSE(r.ok()) << "offset " << offset;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss)
          << r.status().ToString();
    }
  }
}

TEST(SegmentTest, DetectsTruncation) {
  TempDir dir;
  std::string path = dir.File("t.seg");
  ASSERT_TRUE(WriteSegment(path, SampleTable()).ok());
  uint64_t size = FileSize(path).value();
  std::filesystem::resize_file(path, size - 10);
  Result<Table> r = ReadSegment(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

// --- Manifest ---------------------------------------------------------------

TEST(ManifestTest, EncodeDecodeRoundTrip) {
  Manifest m;
  m.wal_file = "wal-000007.log";
  m.next_lsn = 42;
  m.tables.push_back({"sales", "seg-000003.seg", 1000, 17});
  m.tables.push_back({"emp", "seg-000004.seg", 0, 0});
  Result<Manifest> back = DecodeManifest(EncodeManifest(m));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->wal_file, m.wal_file);
  EXPECT_EQ(back->next_lsn, m.next_lsn);
  ASSERT_EQ(back->tables.size(), 2u);
  EXPECT_EQ(back->tables[0].name, "sales");
  EXPECT_EQ(back->tables[0].segment_file, "seg-000003.seg");
  EXPECT_EQ(back->tables[0].rows, 1000u);
  EXPECT_EQ(back->tables[0].flush_lsn, 17u);
}

TEST(ManifestTest, RejectsCorruption) {
  Manifest m;
  m.wal_file = "wal-000001.log";
  std::string bytes = EncodeManifest(m);
  std::string tampered = bytes;
  tampered[0] ^= 0x20;
  EXPECT_FALSE(DecodeManifest(tampered).ok());
  EXPECT_FALSE(DecodeManifest(bytes.substr(0, bytes.size() - 4)).ok());
  EXPECT_FALSE(DecodeManifest("").ok());
}

TEST(ManifestTest, FileRoundTrip) {
  TempDir dir;
  Manifest m;
  m.wal_file = "wal-000001.log";
  m.next_lsn = 9;
  m.tables.push_back({"t", "seg-000002.seg", 5, 8});
  std::string path = dir.File("MANIFEST");
  ASSERT_TRUE(WriteManifest(path, m).ok());
  Result<Manifest> back = ReadManifest(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->next_lsn, 9u);
  ASSERT_EQ(back->tables.size(), 1u);
}

// --- WAL --------------------------------------------------------------------

TEST(WalTest, AppendAndReadBack) {
  TempDir dir;
  std::string path = dir.File("wal.log");
  Result<WalWriter> w =
      WalWriter::Create(path, /*next_lsn=*/1, FsyncPolicy::kAlways, 1 << 20);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  Table t = SampleTable();
  std::string payload;
  EncodeAppendPayload("sales", t, &payload);
  for (int i = 0; i < 3; ++i) {
    Result<uint64_t> lsn = w->AppendRecord(kWalRecordAppend, payload);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(w->fsyncs(), 3u);
  ASSERT_TRUE(w->Close().ok());

  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->tail_reason.empty());
  EXPECT_EQ(r->discarded_bytes, 0u);
  EXPECT_EQ(r->next_lsn, 4u);
  ASSERT_EQ(r->records.size(), 3u);
  for (const WalRecord& rec : r->records) {
    EXPECT_EQ(rec.type, kWalRecordAppend);
    ByteReader in(rec.payload);
    std::string_view name;
    ASSERT_TRUE(in.ReadLenPrefixed(&name));
    EXPECT_EQ(name, "sales");
    Result<Table> back = DecodeTable(&in);
    ASSERT_TRUE(back.ok());
    ExpectTablesBitIdentical(t, *back);
  }
}

TEST(WalTest, TornTailIsDiscardedNotFatal) {
  TempDir dir;
  std::string path = dir.File("wal.log");
  Result<WalWriter> w =
      WalWriter::Create(path, 1, FsyncPolicy::kOff, 1 << 20);
  ASSERT_TRUE(w.ok());
  std::string payload;
  EncodeAppendPayload("t", SampleTable(), &payload);
  ASSERT_TRUE(w->AppendRecord(kWalRecordAppend, payload).ok());
  ASSERT_TRUE(w->AppendRecord(kWalRecordAppend, payload).ok());
  uint64_t intact = w->bytes_written();
  ASSERT_TRUE(w->Close().ok());

  // Simulate a crash mid-write: drop the back half of the second record.
  std::filesystem::resize_file(path, intact - payload.size() / 2);
  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0].lsn, 1u);
  EXPECT_FALSE(r->tail_reason.empty());
  EXPECT_GT(r->discarded_bytes, 0u);
  EXPECT_EQ(r->next_lsn, 2u);
}

TEST(WalTest, CorruptRecordStopsReplayAtTear) {
  TempDir dir;
  std::string path = dir.File("wal.log");
  Result<WalWriter> w =
      WalWriter::Create(path, 1, FsyncPolicy::kOff, 1 << 20);
  ASSERT_TRUE(w.ok());
  std::string payload;
  EncodeAppendPayload("t", SampleTable(), &payload);
  ASSERT_TRUE(w->AppendRecord(kWalRecordAppend, payload).ok());
  uint64_t first_end = w->bytes_written();
  ASSERT_TRUE(w->AppendRecord(kWalRecordAppend, payload).ok());
  ASSERT_TRUE(w->Close().ok());

  CorruptByte(path, static_cast<size_t>(first_end) + 30);  // inside record 2
  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->valid_bytes, first_end);
  EXPECT_FALSE(r->tail_reason.empty());
}

TEST(WalTest, ReopenTruncatesTornTailAndContinues) {
  TempDir dir;
  std::string path = dir.File("wal.log");
  {
    Result<WalWriter> w =
        WalWriter::Create(path, 1, FsyncPolicy::kOff, 1 << 20);
    ASSERT_TRUE(w.ok());
    std::string payload;
    EncodeAppendPayload("t", SampleTable(), &payload);
    ASSERT_TRUE(w->AppendRecord(kWalRecordAppend, payload).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  // Torn garbage after the intact record.
  {
    AppendFile f;
    ASSERT_TRUE(f.OpenForAppend(path).ok());
    ASSERT_TRUE(f.Append("garbage tail bytes").ok());
    ASSERT_TRUE(f.Close().ok());
  }
  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->records.size(), 1u);
  Result<WalWriter> w = WalWriter::Reopen(path, r->next_lsn, r->valid_bytes,
                                          FsyncPolicy::kOff, 1 << 20);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  std::string payload;
  EncodeAppendPayload("t", SampleTable(), &payload);
  Result<uint64_t> lsn = w->AppendRecord(kWalRecordAppend, payload);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
  ASSERT_TRUE(w->Close().ok());
  Result<WalReadResult> again = ReadWal(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records.size(), 2u);
  EXPECT_TRUE(again->tail_reason.empty());
}

TEST(WalTest, BatchPolicySyncsOnThreshold) {
  TempDir dir;
  Result<WalWriter> w = WalWriter::Create(dir.File("wal.log"), 1,
                                          FsyncPolicy::kBatch,
                                          /*batch_bytes=*/256);
  ASSERT_TRUE(w.ok());
  std::string payload(100, 'x');
  ASSERT_TRUE(w->AppendRecord(kWalRecordAppend, payload).ok());
  EXPECT_EQ(w->fsyncs(), 0u);  // under threshold: no fsync yet
  ASSERT_TRUE(w->AppendRecord(kWalRecordAppend, payload).ok());
  ASSERT_TRUE(w->AppendRecord(kWalRecordAppend, payload).ok());
  EXPECT_GE(w->fsyncs(), 1u);  // crossed 256 accumulated bytes
  uint64_t before = w->fsyncs();
  ASSERT_TRUE(w->Sync().ok());  // explicit barrier is idempotent-ish
  EXPECT_GE(w->fsyncs(), before);
}

// --- StorageManager ---------------------------------------------------------

TEST(StorageManagerTest, FreshDirThenReopenEmpty) {
  TempDir dir;
  StorageOptions opts;
  opts.data_dir = dir.File("db");
  {
    Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    EXPECT_FALSE((*sm)->recovery_stats().opened_existing);
    EXPECT_TRUE((*sm)->TakeRecoveredTables().empty());
  }
  Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  EXPECT_TRUE((*sm)->recovery_stats().opened_existing);
  EXPECT_EQ((*sm)->recovery_stats().tables_loaded, 0u);
}

TEST(StorageManagerTest, AppendsReplayAfterReopen) {
  TempDir dir;
  StorageOptions opts;
  opts.data_dir = dir.File("db");
  opts.fsync = FsyncPolicy::kOff;
  Table t = SampleTable();
  {
    Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
    ASSERT_TRUE(sm.ok());
    ASSERT_TRUE((*sm)->PersistTable("t", Table(t.schema())).ok());
    ASSERT_TRUE((*sm)->LogAppend("t", t).ok());
    ASSERT_TRUE((*sm)->SyncWal().ok());
  }
  Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  EXPECT_EQ((*sm)->recovery_stats().wal_records_replayed, 1u);
  std::vector<std::pair<std::string, Table>> tables =
      (*sm)->TakeRecoveredTables();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].first, "t");
  ExpectTablesBitIdentical(t, tables[0].second);
}

TEST(StorageManagerTest, CheckpointTruncatesWalAndSurvivesReopen) {
  TempDir dir;
  StorageOptions opts;
  opts.data_dir = dir.File("db");
  opts.fsync = FsyncPolicy::kOff;
  Table t = SampleTable();
  {
    Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
    ASSERT_TRUE(sm.ok());
    ASSERT_TRUE((*sm)->PersistTable("t", Table(t.schema())).ok());
    ASSERT_TRUE((*sm)->LogAppend("t", t).ok());
    Result<StorageManager::CheckpointStats> ck =
        (*sm)->Checkpoint({{"t", &t}});
    ASSERT_TRUE(ck.ok()) << ck.status().ToString();
    EXPECT_EQ(ck->tables, 1u);
    EXPECT_EQ(ck->rows, t.num_rows());
    EXPECT_GT(ck->bytes, 0u);
    EXPECT_EQ((*sm)->wal_bytes_written(), 0u);  // fresh WAL after checkpoint
  }
  Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
  ASSERT_TRUE(sm.ok());
  EXPECT_EQ((*sm)->recovery_stats().wal_records_replayed, 0u);
  std::vector<std::pair<std::string, Table>> tables =
      (*sm)->TakeRecoveredTables();
  ASSERT_EQ(tables.size(), 1u);
  ExpectTablesBitIdentical(t, tables[0].second);
}

TEST(StorageManagerTest, RemoveTableDeletesSegment) {
  TempDir dir;
  StorageOptions opts;
  opts.data_dir = dir.File("db");
  opts.fsync = FsyncPolicy::kOff;
  {
    Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
    ASSERT_TRUE(sm.ok());
    ASSERT_TRUE((*sm)->PersistTable("t", SampleTable()).ok());
    ASSERT_TRUE((*sm)->RemoveTable("t").ok());
    // Removing a never-persisted table is fine too.
    ASSERT_TRUE((*sm)->RemoveTable("ghost").ok());
  }
  Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
  ASSERT_TRUE(sm.ok());
  EXPECT_TRUE((*sm)->TakeRecoveredTables().empty());
}

TEST(StorageManagerTest, CleanShutdownMarkerIsOneShot) {
  TempDir dir;
  StorageOptions opts;
  opts.data_dir = dir.File("db");
  {
    Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
    ASSERT_TRUE(sm.ok());
    ASSERT_TRUE((*sm)->MarkCleanShutdown().ok());
  }
  {
    Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
    ASSERT_TRUE(sm.ok());
    EXPECT_TRUE((*sm)->recovery_stats().clean_shutdown);
  }
  // The marker is consumed: a second open (no marker written) is unclean.
  Result<std::unique_ptr<StorageManager>> sm = StorageManager::Open(opts);
  ASSERT_TRUE(sm.ok());
  EXPECT_FALSE((*sm)->recovery_stats().clean_shutdown);
}

// --- DROP TABLE / CHECKPOINT parsing and analysis ---------------------------

TEST(DropParseTest, Forms) {
  Result<DropStatement> r = ParseDrop("DROP TABLE sales");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table, "sales");
  EXPECT_FALSE(r->if_exists);
  r = ParseDrop("drop table if exists Sales;");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table, "Sales");
  EXPECT_TRUE(r->if_exists);
  EXPECT_FALSE(ParseDrop("DROP sales").ok());
  EXPECT_FALSE(ParseDrop("DROP TABLE").ok());
  EXPECT_FALSE(ParseDrop("DROP TABLE IF sales").ok());
  EXPECT_FALSE(ParseDrop("DROP TABLE a b").ok());
}

TEST(DropParseTest, StatementKind) {
  EXPECT_EQ(ParseStatement("DROP TABLE f")->kind, Statement::Kind::kDrop);
  EXPECT_EQ(ParseStatement("checkpoint")->kind, Statement::Kind::kCheckpoint);
  EXPECT_EQ(ParseStatement("EXPLAIN DROP TABLE f")->kind,
            Statement::Kind::kDrop);
}

// DropTable's own existence check is the only one a DROP passes through.
TEST(DropAnalyzeTest, MissingTable) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", SampleTable()).ok());
  Result<bool> r = db.DropTable("f");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_EQ(db.DropTable("nope").status().code(), StatusCode::kNotFound);
  Result<bool> b = db.DropTable("nope", /*if_exists=*/true);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(*b);
}

// --- SQL surface through PctDatabase ----------------------------------------

TEST(DropSqlTest, DropsAndReportsThroughExecute) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", SampleTable()).ok());
  Result<Table> r = db.Execute("DROP TABLE f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->column(0).Int64At(0), 1);  // dropped = 1
  EXPECT_FALSE(db.catalog().GetTable("f").ok());
  EXPECT_EQ(db.Execute("DROP TABLE f").status().code(), StatusCode::kNotFound);
  Result<Table> benign = db.Execute("DROP TABLE IF EXISTS f");
  ASSERT_TRUE(benign.ok());
  EXPECT_EQ(benign->column(0).Int64At(0), 0);  // dropped = 0
}

TEST(DropSqlTest, ExplainDoesNotDrop) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", SampleTable()).ok());
  Result<Table> r = db.Execute("EXPLAIN DROP TABLE f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(db.catalog().GetTable("f").ok());  // still there
}

TEST(CheckpointSqlTest, NoStorageIsZeroStats) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", SampleTable()).ok());
  Result<Table> r = db.Execute("CHECKPOINT");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->column(0).Int64At(0), 0);  // tables flushed
}

TEST(DatabaseStorageTest, FullLifecycleRoundTrip) {
  TempDir dir;
  Table t = SampleTable();
  {
    PctDatabase db;
    StorageOptions opts;
    opts.data_dir = dir.File("db");
    opts.fsync = FsyncPolicy::kAlways;
    ASSERT_TRUE(db.OpenStorage(opts).ok());
    ASSERT_TRUE(db.CreateTable("f", t).ok());
    Result<Table> ins =
        db.Execute("INSERT INTO f VALUES (9, 2.5, 'wa'), (10, NULL, 'ca')");
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    // No checkpoint, no clean shutdown: recovery must replay the WAL.
  }
  PctDatabase db;
  StorageOptions opts;
  opts.data_dir = dir.File("db");
  ASSERT_TRUE(db.OpenStorage(opts).ok());
  Result<const Table*> back =
      static_cast<const PctDatabase&>(db).catalog().GetTable("f");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)->num_rows(), t.num_rows() + 2);
  EXPECT_EQ((*back)->column(2).StringAt(4), "wa");
  EXPECT_TRUE((*back)->column(1).IsNull(5));
  EXPECT_EQ((*back)->column(2).StringAt(5), "ca");
  // 'ca' was already in the dictionary: same code as row 0.
  EXPECT_EQ((*back)->column(2).codes()[5], (*back)->column(2).codes()[0]);

  // Queries work against recovered tables.
  Result<Table> q = db.Query(
      "SELECT s, Vpct(v BY s) AS pct FROM f GROUP BY s ORDER BY s");
  EXPECT_TRUE(q.ok()) << q.status().ToString();

  // DROP with storage removes the manifest entry durably.
  ASSERT_TRUE(db.Execute("DROP TABLE f").ok());
  PctDatabase db2;
  StorageOptions opts2;
  opts2.data_dir = dir.File("db");
  ASSERT_TRUE(db2.OpenStorage(opts2).ok());
  EXPECT_FALSE(db2.catalog().GetTable("f").ok());
}

TEST(DatabaseStorageTest, CheckpointStatementFlushes) {
  TempDir dir;
  {
    PctDatabase db;
    StorageOptions opts;
    opts.data_dir = dir.File("db");
    opts.fsync = FsyncPolicy::kOff;  // checkpoint must still be durable
    ASSERT_TRUE(db.OpenStorage(opts).ok());
    ASSERT_TRUE(db.CreateTable("f", SampleTable()).ok());
    ASSERT_TRUE(db.Execute("INSERT INTO f VALUES (5, 5.0, 'nv')").ok());
    Result<Table> ck = db.Execute("CHECKPOINT");
    ASSERT_TRUE(ck.ok()) << ck.status().ToString();
    EXPECT_EQ(ck->column(0).Int64At(0), 1);  // one table flushed
    EXPECT_EQ(ck->column(1).Int64At(0), 5);  // rows
  }
  PctDatabase db;
  StorageOptions opts;
  opts.data_dir = dir.File("db");
  ASSERT_TRUE(db.OpenStorage(opts).ok());
  EXPECT_EQ(db.storage()->recovery_stats().wal_records_replayed, 0u);
  Result<const Table*> back =
      static_cast<const PctDatabase&>(db).catalog().GetTable("f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->num_rows(), 5u);
}

}  // namespace
}  // namespace storage
}  // namespace pctagg
