#include "mcsort/delta/table_version.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <unordered_set>
#include <utility>

#include "mcsort/common/logging.h"

namespace mcsort {
namespace delta {
namespace {

// Natives beyond ±2^62 would overflow the merged-range arithmetic in
// merge_scan (max - min over int64); the encode path rejects them up front.
constexpr int64_t kMaxAbsNative = int64_t{1} << 62;

bool CompareInt(DmlCompareOp op, int64_t a, int64_t b) {
  switch (op) {
    case DmlCompareOp::kEq: return a == b;
    case DmlCompareOp::kNe: return a != b;
    case DmlCompareOp::kLt: return a < b;
    case DmlCompareOp::kLe: return a <= b;
    case DmlCompareOp::kGt: return a > b;
    case DmlCompareOp::kGe: return a >= b;
  }
  return false;
}

bool CompareStr(DmlCompareOp op, const std::string& a, const std::string& b) {
  switch (op) {
    case DmlCompareOp::kEq: return a == b;
    case DmlCompareOp::kNe: return a != b;
    case DmlCompareOp::kLt: return a < b;
    case DmlCompareOp::kLe: return a <= b;
    case DmlCompareOp::kGt: return a > b;
    case DmlCompareOp::kGe: return a >= b;
  }
  return false;
}

// A code-side predicate: codes in [lo, hi], or outside it when `negate`.
// Never empty: "no code" is the whole domain negated.
struct CodeRange {
  Code lo = 0;
  Code hi = 0;
  bool negate = false;

  bool Matches(Code code) const { return (code - lo <= hi - lo) != negate; }
};

// Clamps [lo, hi] (in the exact arithmetic of __int128) to the code domain.
CodeRange MakeCodeRange(__int128 lo, __int128 hi, bool negate) {
  constexpr __int128 kMaxCode = std::numeric_limits<Code>::max();
  lo = std::max<__int128>(lo, 0);
  hi = std::min<__int128>(hi, kMaxCode);
  if (lo > hi) return {0, std::numeric_limits<Code>::max(), !negate};
  return {static_cast<Code>(lo), static_cast<Code>(hi), negate};
}

// `op` against a position in the code order: `at` is a code when `exact`,
// else the slot just below code `at`. For a sorted dictionary, `at` is the
// predicate string's lower-bound rank; for a numeric column, the
// predicate's native minus the domain base (always exact).
CodeRange CodeRangeOf(DmlCompareOp op, __int128 at, bool exact) {
  constexpr __int128 kMaxCode = std::numeric_limits<Code>::max();
  const __int128 below = exact ? at : at - 1;  // last code below-or-at
  switch (op) {
    case DmlCompareOp::kEq: return MakeCodeRange(at, exact ? at : at - 1, false);
    case DmlCompareOp::kNe: return MakeCodeRange(at, exact ? at : at - 1, true);
    case DmlCompareOp::kLt: return MakeCodeRange(0, at - 1, false);
    case DmlCompareOp::kLe: return MakeCodeRange(0, below, false);
    case DmlCompareOp::kGt: return MakeCodeRange(below + 1, kMaxCode, false);
    case DmlCompareOp::kGe: return MakeCodeRange(at, kMaxCode, false);
  }
  return MakeCodeRange(1, 0, false);
}

template <typename T>
void CollectMatches(const T* codes, size_t n, CodeRange range,
                    std::vector<uint32_t>* out) {
  for (size_t oid = 0; oid < n; ++oid) {
    if (range.Matches(codes[oid])) out->push_back(static_cast<uint32_t>(oid));
  }
}

int ColumnIndex(const std::vector<std::string>& names,
                const std::string& name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

TableVersion::TableVersion(std::shared_ptr<const Table> base)
    : base_(std::move(base)),
      delta_(base_ ? base_->column_names().size() : 0) {
  MCSORT_CHECK(base_ != nullptr);
}

Status TableVersion::CheckValueLocked(size_t col, const DmlValue& value) const {
  const std::string& name = base_->column_names()[col];
  if (base_->HasDictionary(name)) {
    if (!value.is_string) {
      return Status::InvalidArgument("column '" + name +
                                     "' is a string column, got an int");
    }
    return Status::Ok();
  }
  if (value.is_string) {
    return Status::InvalidArgument("column '" + name +
                                   "' is numeric, got a string");
  }
  if (value.i64 <= -kMaxAbsNative || value.i64 >= kMaxAbsNative) {
    return Status::InvalidArgument("column '" + name +
                                   "': value outside the supported ±2^62 range");
  }
  return Status::Ok();
}

int64_t TableVersion::EncodeValueLocked(size_t col, const DmlValue& value) {
  const std::string& name = base_->column_names()[col];
  if (!base_->HasDictionary(name)) return value.i64;
  const StringDictionary& dict = base_->dictionary(name);
  const std::vector<std::string>& values = dict.values();
  auto it = std::lower_bound(values.begin(), values.end(), value.str);
  if (it != values.end() && *it == value.str) {
    return static_cast<int64_t>(it - values.begin());
  }
  return delta_.InternOverflow(col, value.str, values.size());
}

Status TableVersion::MatchLocked(const DmlPredicate& pred,
                                 std::vector<uint32_t>* base_oids,
                                 std::vector<uint32_t>* delta_rows) const {
  const std::vector<std::string>& names = base_->column_names();
  const int idx = ColumnIndex(names, pred.column);
  if (idx < 0) {
    return Status::InvalidArgument("predicate column '" + pred.column +
                                   "' does not exist");
  }
  Status check = CheckValueLocked(static_cast<size_t>(idx), pred.value);
  if (!check.ok()) return check;

  const std::string& name = names[idx];
  const EncodedColumn& col = base_->column(name);
  const bool is_dict = base_->HasDictionary(name);
  CodeRange range;
  if (is_dict) {
    const std::vector<std::string>& values = base_->dictionary(name).values();
    auto it = std::lower_bound(values.begin(), values.end(), pred.value.str);
    range = CodeRangeOf(pred.op, it - values.begin(),
                        it != values.end() && *it == pred.value.str);
  } else {
    range = CodeRangeOf(pred.op,
                        static_cast<__int128>(pred.value.i64) -
                            base_->domain_base(name),
                        /*exact=*/true);
  }
  switch (col.type()) {
    case PhysicalType::kU16:
      CollectMatches(col.Data16(), col.size(), range, base_oids);
      break;
    case PhysicalType::kU32:
      CollectMatches(col.Data32(), col.size(), range, base_oids);
      break;
    case PhysicalType::kU64:
      CollectMatches(col.Data64(), col.size(), range, base_oids);
      break;
  }
  std::erase_if(*base_oids,
                [this](uint32_t oid) { return delta_.base_dead(oid); });

  const size_t dict_size =
      is_dict ? base_->dictionary(name).size() : 0;
  for (size_t r = 0; r < delta_.row_count(); ++r) {
    if (delta_.row_dead(r)) continue;
    const int64_t stored = delta_.row(r)[idx];
    bool match;
    if (is_dict) {
      const size_t id = static_cast<size_t>(stored);
      const std::string& s =
          id < dict_size ? base_->dictionary(name).Decode(id)
                         : delta_.overflow(idx)[id - dict_size];
      match = CompareStr(pred.op, s, pred.value.str);
    } else {
      match = CompareInt(pred.op, stored, pred.value.i64);
    }
    if (match) delta_rows->push_back(static_cast<uint32_t>(r));
  }
  return Status::Ok();
}

DmlOutcome TableVersion::ApplyInsertLocked(const DmlCommand& cmd) {
  DmlOutcome out;
  const std::vector<std::string>& names = base_->column_names();
  if (cmd.columns.size() != names.size()) {
    out.status = Status::InvalidArgument(
        "insert must assign every column (" + std::to_string(names.size()) +
        " expected, " + std::to_string(cmd.columns.size()) + " named)");
    return out;
  }
  // colmap[k] = table column index of cmd.columns[k].
  std::vector<size_t> colmap(cmd.columns.size());
  std::unordered_set<size_t> seen;
  for (size_t k = 0; k < cmd.columns.size(); ++k) {
    const int idx = ColumnIndex(names, cmd.columns[k]);
    if (idx < 0) {
      out.status = Status::InvalidArgument("unknown column '" +
                                           cmd.columns[k] + "'");
      return out;
    }
    if (!seen.insert(static_cast<size_t>(idx)).second) {
      out.status = Status::InvalidArgument("column '" + cmd.columns[k] +
                                           "' assigned twice");
      return out;
    }
    colmap[k] = static_cast<size_t>(idx);
  }

  for (size_t r = 0; r < cmd.rows.size(); ++r) {
    const std::vector<DmlValue>& values = cmd.rows[r];
    if (values.size() != cmd.columns.size()) {
      out.row_errors.push_back(
          {static_cast<uint32_t>(r), StatusCode::kInvalidArgument,
           "row has " + std::to_string(values.size()) + " values, " +
               std::to_string(cmd.columns.size()) + " columns named"});
      ++out.rows_rejected;
      continue;
    }
    // Validate the whole row before interning anything.
    Status row_status;
    for (size_t k = 0; k < values.size() && row_status.ok(); ++k) {
      row_status = CheckValueLocked(colmap[k], values[k]);
    }
    if (!row_status.ok()) {
      out.row_errors.push_back({static_cast<uint32_t>(r), row_status.code,
                                std::move(row_status.detail)});
      ++out.rows_rejected;
      continue;
    }
    std::vector<int64_t> row(names.size(), 0);
    for (size_t k = 0; k < values.size(); ++k) {
      row[colmap[k]] = EncodeValueLocked(colmap[k], values[k]);
    }
    delta_.AppendRow(std::move(row));
    ++out.rows_affected;
  }
  return out;
}

DmlOutcome TableVersion::ApplyDeleteLocked(const DmlCommand& cmd) {
  DmlOutcome out;
  if (!cmd.has_predicate) {
    out.status = Status::InvalidArgument("delete requires a predicate");
    return out;
  }
  std::vector<uint32_t> base_oids, delta_rows;
  out.status = MatchLocked(cmd.predicate, &base_oids, &delta_rows);
  if (!out.status.ok()) return out;
  for (uint32_t oid : base_oids) {
    if (delta_.TombstoneBase(oid)) ++out.rows_affected;
  }
  for (uint32_t r : delta_rows) {
    if (delta_.TombstoneDelta(r)) ++out.rows_affected;
  }
  return out;
}

DmlOutcome TableVersion::ApplyUpdateLocked(const DmlCommand& cmd) {
  DmlOutcome out;
  if (!cmd.has_predicate) {
    out.status = Status::InvalidArgument("update requires a predicate");
    return out;
  }
  if (cmd.columns.empty() || cmd.rows.size() != 1 ||
      cmd.rows[0].size() != cmd.columns.size()) {
    out.status = Status::InvalidArgument(
        "update needs a SET list: columns plus one parallel value row");
    return out;
  }
  const std::vector<std::string>& names = base_->column_names();
  std::vector<size_t> colmap(cmd.columns.size());
  std::unordered_set<size_t> seen;
  for (size_t k = 0; k < cmd.columns.size(); ++k) {
    const int idx = ColumnIndex(names, cmd.columns[k]);
    if (idx < 0) {
      out.status = Status::InvalidArgument("unknown column '" +
                                           cmd.columns[k] + "'");
      return out;
    }
    if (!seen.insert(static_cast<size_t>(idx)).second) {
      out.status = Status::InvalidArgument("column '" + cmd.columns[k] +
                                           "' assigned twice");
      return out;
    }
    colmap[k] = static_cast<size_t>(idx);
    out.status = CheckValueLocked(colmap[k], cmd.rows[0][k]);
    if (!out.status.ok()) return out;
  }

  std::vector<uint32_t> base_oids, delta_rows;
  out.status = MatchLocked(cmd.predicate, &base_oids, &delta_rows);
  if (!out.status.ok()) return out;

  // Encode the SET values once — the same stored form lands in every
  // rewritten row.
  std::vector<int64_t> set_values(cmd.columns.size());
  for (size_t k = 0; k < cmd.columns.size(); ++k) {
    set_values[k] = EncodeValueLocked(colmap[k], cmd.rows[0][k]);
  }

  // Delete+insert: materialize each matched row in stored form (a base
  // code IS a valid delta id for its dictionary; numerics decode to the
  // native), override the SET columns, tombstone, re-append.
  for (uint32_t oid : base_oids) {
    std::vector<int64_t> row(names.size());
    for (size_t c = 0; c < names.size(); ++c) {
      const EncodedColumn& col = base_->column(names[c]);
      if (base_->HasDictionary(names[c])) {
        row[c] = static_cast<int64_t>(col.Get(oid));
      } else {
        row[c] = base_->domain_base(names[c]) +
                 static_cast<int64_t>(col.Get(oid));
      }
    }
    for (size_t k = 0; k < colmap.size(); ++k) row[colmap[k]] = set_values[k];
    if (!delta_.TombstoneBase(oid)) continue;
    delta_.AppendRow(std::move(row));
    ++out.rows_affected;
  }
  for (uint32_t r : delta_rows) {
    std::vector<int64_t> row = delta_.row(r);
    for (size_t k = 0; k < colmap.size(); ++k) row[colmap[k]] = set_values[k];
    if (!delta_.TombstoneDelta(r)) continue;
    delta_.AppendRow(std::move(row));
    ++out.rows_affected;
  }
  return out;
}

DmlOutcome TableVersion::Apply(const DmlCommand& cmd) {
  std::lock_guard<std::mutex> lock(mu_);
  DmlOutcome out;
  switch (cmd.op) {
    case DmlOp::kInsert: out = ApplyInsertLocked(cmd); break;
    case DmlOp::kDelete: out = ApplyDeleteLocked(cmd); break;
    case DmlOp::kUpdate: out = ApplyUpdateLocked(cmd); break;
    default:
      out.status = Status::InvalidArgument("unknown DML op");
      break;
  }
  out.delta_rows = delta_.live_rows();
  out.epoch = epoch_;
  return out;
}

DeltaSnapshot TableVersion::CopySnapshotLocked() const {
  DeltaSnapshot snap;
  snap.rows.reserve(delta_.row_count());
  snap.row_dead.reserve(delta_.row_count());
  for (size_t r = 0; r < delta_.row_count(); ++r) {
    snap.rows.push_back(delta_.row(r));
    snap.row_dead.push_back(delta_.row_dead(r) ? 1 : 0);
  }
  snap.base_tombstones = delta_.base_tombstones();
  snap.overflow.resize(delta_.num_columns());
  for (size_t c = 0; c < delta_.num_columns(); ++c) {
    snap.overflow[c] = delta_.overflow(c);
  }
  snap.consumed_rows = delta_.row_count();
  snap.consumed_base_tombstones = delta_.base_tombstones().size();
  snap.consumed_delta_tombstones = delta_.delta_tombstones().size();
  snap.seq = delta_.mutation_seq();
  return snap;
}

std::shared_ptr<const Table> TableVersion::Snapshot() {
  std::shared_ptr<Flight> flight;
  DeltaSnapshot snap;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (delta_.empty()) return base_;
      const std::shared_ptr<Flight> last = flight_;
      if (last == nullptr || last->base != base_ ||
          last->seq != delta_.mutation_seq()) {
        break;
      }
      flight_done_.wait(lock, [&] { return last->done; });
      if (last->image != nullptr) return last->image;
      if (flight_ == last) break;  // the build threw: build again
    }
    flight = std::make_shared<Flight>();
    flight->base = base_;
    flight->seq = delta_.mutation_seq();
    flight_ = flight;
    snap = CopySnapshotLocked();
  }
  std::shared_ptr<const Table> image;
  try {
    image = BuildMergedTable(flight->base, snap).table;
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    flight->done = true;
    flight_done_.notify_all();
    throw;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshot_builds_;
  flight->image = image;
  flight->done = true;
  flight_done_.notify_all();
  return image;
}

TableVersion::CompactionJob TableVersion::BeginCompaction() {
  std::lock_guard<std::mutex> lock(mu_);
  CompactionJob job;
  job.base = base_;
  job.snap = CopySnapshotLocked();
  job.epoch = epoch_;
  return job;
}

bool TableVersion::Publish(const CompactionJob& job, MergedTable merged) {
  std::lock_guard<std::mutex> lock(mu_);
  if (base_ != job.base) return false;
  const std::vector<std::string>& names = base_->column_names();
  DeltaStore fresh(names.size());

  // Tail rows: re-encode dictionary ids against the merged dictionary (a
  // value absent there goes to the fresh overflow); numerics are stored
  // native, so they carry over untouched.
  for (size_t r = job.snap.consumed_rows; r < delta_.row_count(); ++r) {
    std::vector<int64_t> row = delta_.row(r);
    for (size_t c = 0; c < names.size(); ++c) {
      if (!base_->HasDictionary(names[c])) continue;
      const StringDictionary& old_dict = base_->dictionary(names[c]);
      const size_t id = static_cast<size_t>(row[c]);
      const std::string& s = id < old_dict.size()
                                 ? old_dict.Decode(id)
                                 : delta_.overflow(c)[id - old_dict.size()];
      const StringDictionary& new_dict = merged.table->dictionary(names[c]);
      const std::vector<std::string>& values = new_dict.values();
      auto it = std::lower_bound(values.begin(), values.end(), s);
      row[c] = (it != values.end() && *it == s)
                   ? static_cast<int64_t>(it - values.begin())
                   : fresh.InternOverflow(c, s, values.size());
    }
    fresh.AppendRow(std::move(row));
  }

  // Tail base tombstones: the target row lives in the merged image at a
  // translated oid (or was already gone at snapshot time).
  const std::vector<uint32_t>& base_tombs = delta_.base_tombstones();
  for (size_t i = job.snap.consumed_base_tombstones; i < base_tombs.size();
       ++i) {
    const uint32_t oid = merged.NewOidOfBase(base_tombs[i]);
    if (oid != kNoOid) fresh.TombstoneBase(oid);
  }

  // Tail delta tombstones: a pre-snapshot target became a merged base row;
  // a post-snapshot target keeps its (renumbered) delta index.
  const std::vector<uint32_t>& delta_tombs = delta_.delta_tombstones();
  for (size_t i = job.snap.consumed_delta_tombstones; i < delta_tombs.size();
       ++i) {
    const uint32_t r = delta_tombs[i];
    if (r < job.snap.consumed_rows) {
      if (r < merged.new_oid_of_delta.size() &&
          merged.new_oid_of_delta[r] != kNoOid) {
        fresh.TombstoneBase(merged.new_oid_of_delta[r]);
      }
    } else {
      fresh.TombstoneDelta(r - static_cast<uint32_t>(job.snap.consumed_rows));
    }
  }

  base_ = std::move(merged.table);
  delta_ = std::move(fresh);
  ++epoch_;
  flight_.reset();
  return true;
}

void TableVersion::ReplaceBase(std::shared_ptr<const Table> base,
                               bool clear_delta) {
  std::lock_guard<std::mutex> lock(mu_);
  MCSORT_CHECK(base != nullptr);
  const bool schema_changed =
      base->column_names().size() != delta_.num_columns();
  base_ = std::move(base);
  if (clear_delta || schema_changed) {
    delta_ = DeltaStore(base_->column_names().size());
  }
  ++epoch_;
  flight_.reset();
}

uint64_t TableVersion::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

uint64_t TableVersion::delta_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_.live_rows();
}

uint64_t TableVersion::live_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_->row_count() - delta_.base_tombstones().size() +
         delta_.live_rows();
}

uint64_t TableVersion::pending_mutations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_.row_count() + delta_.base_tombstones().size() +
         delta_.delta_tombstones().size();
}

size_t TableVersion::delta_memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_.MemoryBytes();
}

std::shared_ptr<const Table> TableVersion::base() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_;
}

uint64_t TableVersion::snapshot_builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_builds_;
}

}  // namespace delta
}  // namespace mcsort
