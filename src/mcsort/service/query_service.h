// QueryService — the concurrent serving front-end over the one-shot
// executor. N client sessions submit QuerySpecs; the service amortizes
// everything that is identical across repeated query instances:
//
//   * plan search: a sharded-LRU PlanCache keyed by query signature, with
//     statistics-drift invalidation and warm-started re-search;
//   * calibration: one shared CostModel for the whole process
//     (cost/calibration.h, std::call_once);
//   * hardware: one morsel-driven ThreadPool shared by all sessions
//     (dispatch rounds interleave; serial portions overlap);
//
// behind an AdmissionController (bounded in-flight queries + soft scratch
// memory budget) and a MetricsRegistry (queries served, per-phase latency
// histograms, plan-cache hit rate, admission queue depth, morsel stats).
//
// Threading contract: QueryService and everything it owns are
// thread-safe; a QuerySession is a single-client handle — open one per
// client thread and do not share it.
#ifndef MCSORT_SERVICE_QUERY_SERVICE_H_
#define MCSORT_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mcsort/common/thread_pool.h"
#include "mcsort/cost/params.h"
#include "mcsort/delta/compactor.h"
#include "mcsort/delta/dml.h"
#include "mcsort/delta/table_version.h"
#include "mcsort/engine/query.h"
#include "mcsort/io/io_status.h"
#include "mcsort/service/admission.h"
#include "mcsort/service/metrics.h"
#include "mcsort/service/plan_cache.h"
#include "mcsort/storage/table.h"

namespace mcsort {

// On-disk catalog configuration: a directory of table snapshots
// (io/snapshot.h) that backs the service's named-table registry. Tables
// discovered there are registered unloaded and materialize on first use;
// loaded tables are evicted least-recently-used when the resident set
// exceeds the memory budget (only tables with an on-disk snapshot are
// evictable — an adopted, never-saved table is pinned).
struct CatalogOptions {
  std::string dir;            // snapshot root; empty = no disk catalog
  SnapshotLoadOptions load;   // buffered vs mmap, checksum verification
  uint64_t memory_budget_bytes = 0;  // 0 = unlimited
};

struct ServiceOptions {
  // Workers in the shared morsel-driven pool (>= 1).
  int threads = 1;
  // Enable code massaging (plan via ROGA + cache); disabled = every query
  // runs the column-at-a-time baseline and the plan cache idles.
  bool use_massage = true;
  // ROGA knobs, shared by every session (SearchOptions::rho /
  // min_budget_seconds).
  double rho = 0.001;
  double min_budget_seconds = 200e-6;
  PlanCacheOptions plan_cache;
  AdmissionOptions admission;
  // Cost model: true = share the process-wide calibrated model
  // (calibrates/loads the file exactly once); false = use `params` as
  // given (tests and cold starts).
  bool use_calibration = false;
  CostParams params = CostParams::Default();
  // External-sort fallback shared by every session (engine/query.h).
  SpillConfig spill;

  // Defaults with environment overrides applied: MCSORT_RHO (the same
  // knob bench/fig12_rho sweeps), MCSORT_THREADS, and the MCSORT_SPILL_*
  // family.
  static ServiceOptions FromEnv();
};

class QueryService;

// One client's handle: owns a QueryExecutor (and thus per-session sort
// scratch) bound to one table. Not thread-safe; open one per client —
// though the CancellationSource feeding a ctx may be fired from any
// thread, which is the intended way to cancel an in-flight Execute.
class QuerySession {
 public:
  // Executes under `ctx`: admission waits, plan search, the sort, and
  // post-processing all observe the context's cancellation token /
  // deadline / scratch budget / fault injector. The outcome is recorded
  // in the service metrics under exec.<status-name>.
  ExecResult Execute(const QuerySpec& spec, const ExecContext& ctx);

  uint64_t id() const { return id_; }
  // Whether the last Execute's main-sort plan came from the cache.
  bool last_plan_cached() const { return last_plan_cached_; }
  const Table& table() const { return *table_; }

 private:
  friend class QueryService;
  QuerySession(QueryService* service, const Table& table, uint64_t id,
               const ExecutorOptions& options);

  QueryService* service_;
  const Table* table_;
  QueryExecutor executor_;
  uint64_t id_;
  bool last_plan_cached_ = false;
};

// Soft scratch-memory estimate for admitting a query: the sort keys,
// gathered sort columns, and oid arrays the execution will allocate,
// bounded by the table's row count (the pre-filter upper bound).
size_t EstimateScratchBytes(const Table& table,
                            const QueryExecutor::SortAttrs& attrs);

class QueryService {
 public:
  explicit QueryService(const ServiceOptions& options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Opens a session against `table` (borrowed; must outlive the session).
  // Sessions may be opened and used from concurrent threads.
  std::unique_ptr<QuerySession> OpenSession(const Table& table);

  // Named-table catalog for front-ends that address tables by name (the
  // network SCHEMA frame, QUERY's `table` field). Tables are borrowed and
  // must outlive the service; re-registering a name replaces its binding.
  void RegisterTable(const std::string& name, const Table& table);
  // Like RegisterTable but the service takes ownership — the path for
  // ingested and snapshot-loaded tables.
  void AdoptTable(const std::string& name, Table table);

  // Attaches the on-disk catalog: discovers snapshot directories under
  // options.dir and registers their names unloaded. Call before serving.
  void SetCatalog(const CatalogOptions& options);

  // The table registered under `name` (empty = default table). Resident
  // tables resolve lock-cheap; an unloaded on-disk table is loaded first
  // (loads serialize; call from a worker, not an event loop). The returned
  // pointer keeps the table alive across LRU eviction — prefer this over
  // FindTable whenever a catalog with a memory budget is attached.
  std::shared_ptr<const Table> FindTableShared(const std::string& name);
  // Raw-pointer lookup of a *resident* table; nullptr when the name is
  // unknown or its table is not loaded. The pointer is stable only until
  // the binding is replaced or evicted.
  const Table* FindTable(const std::string& name) const;
  // Registered names in stable sorted order (wire SCHEMA responses must
  // not leak registration order).
  std::vector<std::string> ListTables() const;
  // The default table's name: the first one registered/adopted/discovered.
  std::string DefaultTableName() const;

  // Snapshot operations against the attached catalog directory (the wire
  // SAVE_TABLE / LOAD_TABLE opcodes land here). SaveTable snapshots a
  // registered table to <dir>/<name>; LoadTable (re)loads <dir>/<name>
  // into memory and binds it, making it immediately queryable.
  //
  // Unified-status entry points: the codec's IoStatus is lifted via
  // IoStatus::ToStatus() (kNotFound for an unknown/unloaded table,
  // kFailedPrecondition when no catalog is attached, kInvalidArgument for
  // bad names). Wire front-ends recover the legacy TableOpReply io_code
  // with IoStatus::FromStatus.
  Status SaveTable(const std::string& name);
  Status LoadTable(const std::string& name);

  // --- write path (delta/) ------------------------------------------------
  // Applies one DML command against the named table's TableVersion
  // (created on first write; an unloaded on-disk table is loaded first).
  // Queries observe the write on their next FindTableShared: the binding
  // resolves through TableVersion::Snapshot(), which merges base + delta.
  delta::DmlOutcome ApplyDml(const delta::DmlCommand& cmd);

  // Compacts one table: snapshot the delta, re-encode base+delta into a
  // fresh merged table, persist it through the catalog's tmp+rename commit
  // point (when a catalog is attached), and publish the new epoch. Readers
  // pinned to the old epoch keep their shared_ptr. Returns true when a new
  // epoch was published (false: no version / empty delta / lost race).
  bool CompactTable(const std::string& name);

  // Starts the background compactor sweeping every written table whose
  // pending mutation count reaches options.min_delta_rows. Stopped
  // automatically on destruction (or explicitly via StopCompactor).
  void EnableCompaction(const delta::CompactionOptions& options);
  void StopCompactor();

  // Per-table write-path introspection for SCHEMA replies.
  struct DeltaInfo {
    uint64_t epoch = 0;
    uint64_t delta_rows = 0;  // live delta rows awaiting compaction
    uint64_t live_rows = 0;   // base live + delta live
    uint64_t snapshot_builds = 0;  // merged images built for readers
    bool has_version = false;
  };
  DeltaInfo GetDeltaInfo(const std::string& name);

  MetricsRegistry& metrics() { return metrics_; }
  PlanCache& plan_cache() { return plan_cache_; }
  AdmissionController& admission() { return admission_; }
  ThreadPool* pool() { return pool_.get(); }
  const ServiceOptions& options() const { return options_; }
  const CostParams& params() const { return params_; }

  // Registry dump plus plan-cache and admission summary lines — the text
  // hook benches and tests scrape.
  std::string DumpMetrics();

 private:
  friend class QuerySession;
  ExecResult ExecuteOn(QuerySession* session, const QuerySpec& spec,
                       const ExecContext& ctx);

  // One name's entry in the catalog: at most one of borrowed/owned is set;
  // neither means "known but unloaded" (an on-disk snapshot).
  struct Binding {
    std::string name;
    const Table* borrowed = nullptr;
    std::shared_ptr<const Table> owned;
    // Created on first write: from then on the binding's queryable image
    // is version->Snapshot() and `owned` tracks the version's base (which
    // also makes the binding unevictable — the delta references its oids).
    std::shared_ptr<delta::TableVersion> version;
    bool on_disk = false;
    uint64_t last_use = 0;

    const Table* resident() const {
      return borrowed != nullptr ? borrowed : owned.get();
    }
  };

  Binding* FindBindingLocked(const std::string& name);
  Binding& UpsertBindingLocked(const std::string& name);
  // The named table's TableVersion, creating it from the resident table on
  // first use (loading an on-disk table if needed); nullptr when unknown.
  std::shared_ptr<delta::TableVersion> GetOrCreateVersion(
      const std::string& name);
  // Drops least-recently-used evictable tables until under budget.
  void EvictOverBudgetLocked();
  uint64_t ResidentOwnedBytesLocked() const;

  ServiceOptions options_;
  CostParams params_;
  std::unique_ptr<ThreadPool> pool_;
  PlanCache plan_cache_;
  AdmissionController admission_;
  MetricsRegistry metrics_;
  std::atomic<uint64_t> next_session_id_{0};
  mutable std::mutex tables_mu_;
  std::vector<Binding> tables_;  // registration order; first = default
  CatalogOptions catalog_;
  bool has_catalog_ = false;
  uint64_t use_clock_ = 0;
  // Serializes snapshot loads so concurrent misses on the same table do
  // one load; never held together with tables_mu_ around file IO, so
  // resident lookups stay fast while a load is in flight.
  std::mutex load_mu_;
  // Last member: its destructor joins the sweep thread before anything the
  // hooks close over goes away.
  std::unique_ptr<delta::Compactor> compactor_;
};

}  // namespace mcsort

#endif  // MCSORT_SERVICE_QUERY_SERVICE_H_
