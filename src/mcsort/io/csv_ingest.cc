#include "mcsort/io/csv_ingest.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mcsort/common/bits.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/common/timer.h"
#include "mcsort/io/fs_util.h"
#include "mcsort/storage/dictionary.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace {

constexpr uint64_t kRowMorsel = 4096;

struct LineRange {
  const char* begin = nullptr;
  const char* end = nullptr;
};

// Strict integer parse over [b, e): optional sign, digits only, no
// trailing junk, full int64 range.
bool ParseInt64(const char* b, const char* e, int64_t* out) {
  if (b == e) return false;
  bool negative = false;
  if (*b == '+' || *b == '-') {
    negative = *b == '-';
    ++b;
    if (b == e) return false;
  }
  uint64_t magnitude = 0;
  for (; b < e; ++b) {
    if (*b < '0' || *b > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(*b - '0');
    if (magnitude > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;
    }
    magnitude = magnitude * 10 + digit;
  }
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
      (negative ? 1 : 0);
  if (magnitude > limit) return false;
  *out = negative ? -static_cast<int64_t>(magnitude - 1) - 1
                  : static_cast<int64_t>(magnitude);
  return true;
}

// strtod needs a NUL terminator; fields longer than the stack buffer are
// not numbers we care to support.
bool ParseDouble(const char* b, const char* e, double* out) {
  const size_t len = static_cast<size_t>(e - b);
  if (len == 0 || len >= 64) return false;
  char buf[64];
  std::memcpy(buf, b, len);
  buf[len] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + len || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

// Splits [b, e) on `delim` into at most `max_fields` views. Returns the
// field count, or -1 on overflow. No quoting: delimiters always split.
int SplitFields(const char* b, const char* e, char delim,
                std::string_view* out, int max_fields) {
  int n = 0;
  const char* field = b;
  for (const char* p = b;; ++p) {
    if (p == e || *p == delim) {
      if (n >= max_fields) return -1;
      out[n++] = std::string_view(field, static_cast<size_t>(p - field));
      if (p == e) break;
      field = p + 1;
    }
  }
  return n;
}

struct InferAcc {
  bool all_int = true;
  bool all_num = true;
  int64_t imin = std::numeric_limits<int64_t>::max();
  int64_t imax = std::numeric_limits<int64_t>::min();
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();

  void Merge(const InferAcc& other) {
    all_int = all_int && other.all_int;
    all_num = all_num && other.all_num;
    imin = std::min(imin, other.imin);
    imax = std::max(imax, other.imax);
    dmin = std::min(dmin, other.dmin);
    dmax = std::max(dmax, other.dmax);
  }
};

// Records the smallest failing row index across workers.
void NoteBadRow(std::atomic<uint64_t>* bad, uint64_t row) {
  uint64_t seen = bad->load(std::memory_order_relaxed);
  while (row < seen &&
         !bad->compare_exchange_weak(seen, row, std::memory_order_relaxed)) {
  }
}

Status BadRowError(const std::string& path, uint64_t row,
                   const std::string& why) {
  return Status::InvalidArgument(
      path + " row " + std::to_string(row + 1) + ": " + why);
}

double Pow10(int digits) {
  double p = 1.0;
  for (int i = 0; i < digits; ++i) p *= 10.0;
  return p;
}

}  // namespace

Status IngestCsv(const std::string& path, const CsvIngestOptions& options,
                 Table* out, CsvIngestStats* stats) {
  Timer timer;
  std::string content;
  Status st = ReadFileToString(path, &content);
  if (!st.ok()) return st;

  // Phase 1: line index. Sequential memchr scan; empty lines are skipped
  // (a trailing newline does not create a phantom row).
  std::vector<LineRange> lines;
  lines.reserve(content.size() / 32 + 1);
  {
    const char* p = content.data();
    const char* file_end = p + content.size();
    while (p < file_end) {
      const char* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<size_t>(file_end - p)));
      const char* line_end = nl != nullptr ? nl : file_end;
      const char* trimmed = line_end;
      if (trimmed > p && trimmed[-1] == '\r') --trimmed;
      if (trimmed > p) lines.push_back({p, trimmed});
      p = line_end + 1;
    }
  }

  // Establish the schema: names + declared types per column.
  std::vector<CsvColumnSpec> schema = options.schema;
  size_t first_row = 0;
  if (options.has_header) {
    if (lines.empty()) {
      return Status::InvalidArgument(path + ": empty file");
    }
    std::vector<std::string_view> fields(4096);
    const int n = SplitFields(lines[0].begin, lines[0].end,
                              options.delimiter, fields.data(), 4096);
    if (n <= 0) {
      return Status::InvalidArgument(path + ": bad header");
    }
    if (schema.empty()) {
      schema.resize(static_cast<size_t>(n));
      for (int c = 0; c < n; ++c) {
        schema[static_cast<size_t>(c)].name = std::string(fields[c]);
      }
    } else if (schema.size() != static_cast<size_t>(n)) {
      return Status::InvalidArgument(
          path + ": header has " + std::to_string(n) + " fields, schema " +
              std::to_string(schema.size()));
    }
    first_row = 1;
  } else if (schema.empty()) {
    // Headerless with no schema: synthesize c0..cN from the first line.
    if (lines.empty()) {
      return Status::InvalidArgument(path + ": empty file");
    }
    std::vector<std::string_view> fields(4096);
    const int n = SplitFields(lines[0].begin, lines[0].end,
                              options.delimiter, fields.data(), 4096);
    if (n <= 0) {
      return Status::InvalidArgument(path + ": bad first line");
    }
    schema.resize(static_cast<size_t>(n));
    for (int c = 0; c < n; ++c) {
      schema[static_cast<size_t>(c)].name = "c" + std::to_string(c);
    }
  }
  const int cols = static_cast<int>(schema.size());
  if (cols > 256) {
    return Status::InvalidArgument(path + ": more than 256 columns");
  }
  {
    std::unordered_set<std::string> seen;
    for (const auto& spec : schema) {
      if (spec.name.empty() || !seen.insert(spec.name).second) {
        return Status::InvalidArgument(
            path + ": empty or duplicate column name '" + spec.name + "'");
      }
    }
  }

  const uint64_t rows = lines.size() - first_row;
  const LineRange* data_lines = lines.data() + first_row;
  const int threads =
      options.threads > 0
          ? options.threads
          : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ThreadPool pool(threads);
  const int workers = pool.num_threads();

  // Phase 2: one morsel-parallel pass splits every row once, validates the
  // field count, and accumulates per-worker inference state per column.
  std::vector<std::vector<InferAcc>> acc(
      static_cast<size_t>(workers),
      std::vector<InferAcc>(static_cast<size_t>(cols)));
  std::atomic<uint64_t> bad_row{std::numeric_limits<uint64_t>::max()};
  pool.ParallelForDynamic(
      rows, kRowMorsel,
      [&](uint64_t begin, uint64_t end, int worker) {
        std::vector<std::string_view> fields(static_cast<size_t>(cols));
        std::vector<InferAcc>& my = acc[static_cast<size_t>(worker)];
        for (uint64_t i = begin; i < end; ++i) {
          const LineRange& line = data_lines[i];
          if (SplitFields(line.begin, line.end, options.delimiter,
                          fields.data(), cols) != cols) {
            NoteBadRow(&bad_row, i);
            return;
          }
          for (int c = 0; c < cols; ++c) {
            if (schema[static_cast<size_t>(c)].type == CsvType::kString) {
              continue;
            }
            InferAcc& a = my[static_cast<size_t>(c)];
            const std::string_view f = fields[static_cast<size_t>(c)];
            int64_t iv = 0;
            if (a.all_int && ParseInt64(f.data(), f.data() + f.size(), &iv)) {
              a.imin = std::min(a.imin, iv);
              a.imax = std::max(a.imax, iv);
            } else {
              a.all_int = false;
            }
            double dv = 0;
            if (a.all_num &&
                ParseDouble(f.data(), f.data() + f.size(), &dv)) {
              a.dmin = std::min(a.dmin, dv);
              a.dmax = std::max(a.dmax, dv);
            } else {
              a.all_num = false;
            }
          }
        }
      });
  if (bad_row.load() != std::numeric_limits<uint64_t>::max()) {
    return BadRowError(path, first_row + bad_row.load(),
                       "field count != " + std::to_string(cols));
  }
  std::vector<InferAcc> merged(static_cast<size_t>(cols));
  for (const auto& worker_acc : acc) {
    for (int c = 0; c < cols; ++c) {
      merged[static_cast<size_t>(c)].Merge(worker_acc[static_cast<size_t>(c)]);
    }
  }

  // Resolve declared/inferred types.
  std::vector<CsvType> types(static_cast<size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    const InferAcc& a = merged[static_cast<size_t>(c)];
    const CsvType declared = schema[static_cast<size_t>(c)].type;
    const std::string& name = schema[static_cast<size_t>(c)].name;
    switch (declared) {
      case CsvType::kAuto:
        types[static_cast<size_t>(c)] = rows == 0  ? CsvType::kString
                                        : a.all_int ? CsvType::kInt
                                        : a.all_num ? CsvType::kDecimal
                                                    : CsvType::kString;
        break;
      case CsvType::kInt:
        if (rows > 0 && !a.all_int) {
          return Status::InvalidArgument(path + ": column '" + name +
                                         "' declared int but not all-integer");
        }
        types[static_cast<size_t>(c)] = CsvType::kInt;
        break;
      case CsvType::kDecimal:
        if (rows > 0 && !a.all_num) {
          return Status::InvalidArgument(path + ": column '" + name +
                                         "' declared decimal but not numeric");
        }
        types[static_cast<size_t>(c)] = CsvType::kDecimal;
        break;
      case CsvType::kString:
        types[static_cast<size_t>(c)] = CsvType::kString;
        break;
    }
  }

  // Phases 3+4 per column: dictionary build (strings) and parallel encode.
  const double scale = Pow10(options.decimal_scale);
  Table table(rows);
  for (int c = 0; c < cols; ++c) {
    const std::string& name = schema[static_cast<size_t>(c)].name;
    const InferAcc& a = merged[static_cast<size_t>(c)];
    const CsvType type = types[static_cast<size_t>(c)];

    // Per-row field extraction for this column (re-splits the line; cheap
    // relative to parsing, and avoids materializing rows × cols views).
    const auto field_of = [&](uint64_t i) {
      std::string_view fields[256];
      // cols was validated in phase 2; this cannot fail.
      SplitFields(data_lines[i].begin, data_lines[i].end, options.delimiter,
                  fields, cols);
      return fields[c];
    };

    if (type == CsvType::kInt || type == CsvType::kDecimal) {
      int64_t base = 0;
      uint64_t range = 0;
      if (rows > 0) {
        if (type == CsvType::kInt) {
          base = a.imin;
          range = static_cast<uint64_t>(a.imax) - static_cast<uint64_t>(a.imin);
        } else {
          const double smin = a.dmin * scale;
          const double smax = a.dmax * scale;
          if (!(smin >= -9.2e18 && smax <= 9.2e18)) {
            return Status::InvalidArgument(
                path + ": column '" + name + "' overflows at scale " +
                    std::to_string(options.decimal_scale));
          }
          base = std::llround(smin);
          range = static_cast<uint64_t>(std::llround(smax)) -
                  static_cast<uint64_t>(base);
        }
      }
      const int width = range > 0 ? BitsForValue(range) : 1;
      EncodedColumn codes;
      codes.ResetTyped(width, PhysicalTypeForWidth(width), rows,
                       /*zero_fill=*/false);
      pool.ParallelForDynamic(
          rows, kRowMorsel, [&](uint64_t begin, uint64_t end, int) {
            for (uint64_t i = begin; i < end; ++i) {
              const std::string_view f = field_of(i);
              int64_t value = 0;
              if (type == CsvType::kInt) {
                ParseInt64(f.data(), f.data() + f.size(), &value);
              } else {
                double d = 0;
                ParseDouble(f.data(), f.data() + f.size(), &d);
                value = std::llround(d * scale);
              }
              codes.Set(i, static_cast<uint64_t>(value) -
                               static_cast<uint64_t>(base));
            }
          });
      table.AddColumnParts(name, std::move(codes), nullptr, base);
    } else {
      // Two-pass order-preserving dictionary: collect distinct values in
      // per-worker sets, merge + sort, then encode by dictionary rank.
      std::vector<std::unordered_set<std::string>> sets(
          static_cast<size_t>(workers));
      pool.ParallelForDynamic(
          rows, kRowMorsel, [&](uint64_t begin, uint64_t end, int worker) {
            auto& set = sets[static_cast<size_t>(worker)];
            for (uint64_t i = begin; i < end; ++i) {
              const std::string_view f = field_of(i);
              set.emplace(f.data(), f.size());
            }
          });
      std::vector<std::string> values;
      for (auto& set : sets) {
        values.insert(values.end(), std::make_move_iterator(set.begin()),
                      std::make_move_iterator(set.end()));
      }
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      auto dict = std::make_unique<StringDictionary>(
          StringDictionary::FromSorted(std::move(values)));
      const int width = BitsForCount(dict->size());
      EncodedColumn codes;
      codes.ResetTyped(width, PhysicalTypeForWidth(width), rows,
                       /*zero_fill=*/false);
      const std::vector<std::string>& sorted = dict->values();
      pool.ParallelForDynamic(
          rows, kRowMorsel, [&](uint64_t begin, uint64_t end, int) {
            for (uint64_t i = begin; i < end; ++i) {
              const std::string_view f = field_of(i);
              const auto it = std::lower_bound(
                  sorted.begin(), sorted.end(), f,
                  [](const std::string& lhs, std::string_view rhs) {
                    return std::string_view(lhs) < rhs;
                  });
              codes.Set(i, static_cast<Code>(it - sorted.begin()));
            }
          });
      table.AddColumnParts(name, std::move(codes), std::move(dict), 0);
    }
  }

  *out = std::move(table);
  if (stats != nullptr) {
    stats->rows = rows;
    stats->columns = cols;
    stats->seconds = timer.Seconds();
  }
  return Status::Ok();
}

}  // namespace mcsort
