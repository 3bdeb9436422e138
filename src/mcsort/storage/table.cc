#include "mcsort/storage/table.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "mcsort/common/logging.h"

namespace mcsort {

Table& Table::AddColumn(const std::string& name, EncodedColumn column) {
  if (columns_.empty() && row_count_ == 0) {
    row_count_ = column.size();
  }
  MCSORT_CHECK(column.size() == row_count_);
  MCSORT_CHECK(columns_.find(name) == columns_.end());
  Entry entry;
  entry.column = std::move(column);
  columns_.emplace(name, std::move(entry));
  names_.push_back(name);
  return *this;
}

Table& Table::AddStringColumn(const std::string& name,
                              EncodedStringColumn column) {
  AddColumn(name, std::move(column.codes));
  columns_.at(name).dict =
      std::make_unique<StringDictionary>(std::move(column.dictionary));
  return *this;
}

Table& Table::AddDomainColumn(const std::string& name,
                              DomainEncoding column) {
  AddColumn(name, std::move(column.codes));
  columns_.at(name).domain_base = column.base;
  return *this;
}

int64_t Table::domain_base(const std::string& name) const {
  return Find(name).domain_base;
}

bool Table::HasColumn(const std::string& name) const {
  return columns_.find(name) != columns_.end();
}

const Table::Entry& Table::Find(const std::string& name) const {
  auto it = columns_.find(name);
  MCSORT_CHECK(it != columns_.end());
  return it->second;
}

const EncodedColumn& Table::column(const std::string& name) const {
  return Find(name).column;
}

bool Table::HasDictionary(const std::string& name) const {
  return Find(name).dict != nullptr;
}

const StringDictionary& Table::dictionary(const std::string& name) const {
  const Entry& entry = Find(name);
  MCSORT_CHECK(entry.dict != nullptr);
  return *entry.dict;
}

std::shared_ptr<const Table> Table::LineageBase(const Entry& entry) const {
  if (!entry.derives_layouts || lineage_ == nullptr) return nullptr;
  return lineage_->base.lock();
}

// Derivation takes the base's lazy mutex only to read whether a layout is
// built: once set, a layout never changes, and `base` keeps it alive, so
// the O(N) derive runs under this table's mutex alone. Locks only ever go
// from an image to its (older) base, so they cannot cycle.
const ColumnStats& Table::stats(const std::string& name) const {
  const Entry& entry = Find(name);
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  if (entry.stats != nullptr) return *entry.stats;
  if (const std::shared_ptr<const Table> base = LineageBase(entry)) {
    const Entry& from = base->Find(name);
    const ColumnStats* from_stats;
    {
      std::lock_guard<std::mutex> base_lock(*base->lazy_mu_);
      from_stats = from.stats.get();
    }
    if (from_stats != nullptr) {
      std::optional<ColumnStats> derived = ColumnStats::Derive(
          *from_stats, from.column, lineage_->dead, entry.column);
      if (derived) entry.stats = std::make_unique<ColumnStats>(std::move(*derived));
    }
  }
  if (entry.stats == nullptr) {
    entry.stats = std::make_unique<ColumnStats>(ColumnStats::Build(entry.column));
  }
  return *entry.stats;
}

const ByteSliceColumn& Table::byteslice(const std::string& name) const {
  const Entry& entry = Find(name);
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  if (entry.byteslice != nullptr) return *entry.byteslice;
  if (const std::shared_ptr<const Table> base = LineageBase(entry)) {
    const ByteSliceColumn* from_byteslice;
    {
      std::lock_guard<std::mutex> base_lock(*base->lazy_mu_);
      from_byteslice = base->Find(name).byteslice.get();
    }
    if (from_byteslice != nullptr) {
      entry.byteslice = std::make_unique<ByteSliceColumn>(
          ByteSliceColumn::Derive(*from_byteslice, lineage_->dead,
                                  entry.column));
    }
  }
  if (entry.byteslice == nullptr) {
    entry.byteslice =
        std::make_unique<ByteSliceColumn>(ByteSliceColumn::Build(entry.column));
  }
  return *entry.byteslice;
}

Table& Table::AddColumnParts(const std::string& name, EncodedColumn column,
                             std::unique_ptr<StringDictionary> dict,
                             int64_t domain_base) {
  AddColumn(name, std::move(column));
  Entry& entry = columns_.at(name);
  entry.dict = std::move(dict);
  entry.domain_base = domain_base;
  return *this;
}

void Table::SetStats(const std::string& name, ColumnStats stats) {
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  Find(name).stats = std::make_unique<ColumnStats>(std::move(stats));
}

void Table::SetByteSlice(const std::string& name, ByteSliceColumn byteslice) {
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  Find(name).byteslice =
      std::make_unique<ByteSliceColumn>(std::move(byteslice));
}

void Table::SetLineage(std::shared_ptr<const TableLineage> lineage,
                       const std::vector<std::string>& columns) {
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  lineage_ = std::move(lineage);
  for (auto& [name, entry] : columns_) entry.derives_layouts = false;
  for (const std::string& name : columns) {
    auto it = columns_.find(name);
    MCSORT_CHECK(it != columns_.end());
    it->second.derives_layouts = true;
  }
}

bool Table::derives_layouts(const std::string& name) const {
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  return lineage_ != nullptr && Find(name).derives_layouts;
}

void Table::PinResource(std::shared_ptr<void> resource) {
  pinned_.push_back(std::move(resource));
}

size_t Table::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  size_t total = 0;
  for (const auto& [name, entry] : columns_) {
    total += entry.column.byte_size();
    if (entry.dict != nullptr) {
      for (const auto& value : entry.dict->values()) {
        total += value.size() + sizeof(std::string);
      }
    }
    if (entry.stats != nullptr) {
      // Two histogram vectors of 2^min(12, width) buckets (statistics.cc).
      const size_t buckets = size_t{1} << std::min(12, entry.stats->width());
      total += 2 * buckets * sizeof(uint64_t);
    }
    if (entry.byteslice != nullptr) {
      total += static_cast<size_t>(entry.byteslice->num_slices()) *
               ByteSliceColumn::slice_bytes(entry.byteslice->size());
    }
  }
  return total;
}

}  // namespace mcsort
