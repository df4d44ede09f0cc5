//! The query API: endpoint handlers answering the [`FlowCube`]
//! operations over HTTP, plus [`ServedCube`] — the lazily-hydrated
//! columnar cube a server answers them from.
//!
//! Endpoints (all `GET`, all JSON):
//!
//! | route                 | parameters                                  | backing operation |
//! |-----------------------|---------------------------------------------|-------------------|
//! | `/cell`               | `cell`, `level`                             | `FlowCube::lookup` + `describe_cell` |
//! | `/rollup`             | `cell`, `dim`, `level`                      | `FlowCube::roll_up` |
//! | `/drilldown`          | `cell`, `dim`, `level`                      | `FlowCube::drill_down` |
//! | `/slice`              | `at`, `level`, `dim`, `value`               | `FlowCube::slice` |
//! | `/dice`               | `at`, `level`, `where`                      | `FlowCube::dice` |
//! | `/paths/topk`         | `cell`, `level`, `k`                        | `flowgraph::top_k_paths` |
//! | `/paths/probability`  | `cell`, `level`, `path`                     | `flowgraph::path_probability` |
//! | `/exceptions`         | `cell`, `level`                             | cell exception list |
//! | `/stats`              | —                                           | build stats + cube shape |
//! | `/healthz`            | —                                           | liveness + worker-crash health |
//!
//! plus the two routes [`handle_request`] answers for every service:
//! `/metrics` (`format=prometheus` or JSON default; the `flowcube-obs`
//! registry export) and `/debug/flight` (the flight-recorder ring).
//!
//! Two non-`GET` admin routes: `POST /admin/reload` revalidates and
//! atomically swaps the backing snapshot ([`AppState::reload`]), and
//! `POST /admin/ingest` accepts a JSON [`CubeDelta`] micro-batch and
//! merges it into the live cube without a restart
//! ([`AppState::ingest`]).

use crate::access::{unix_millis, AccessEntry, AccessLog};
use crate::cache::{CachedResponse, ResponseCache};
use crate::columnar::{encode_cuboid, ColumnarSection, StringTable, StringsCtx};
use crate::compact::{self, Recovery};
use crate::deltalog;
use crate::error::{ApiError, SnapshotError};
use crate::http::Request;
use crate::server::{Scope, Service};
use crate::snapshot::Snapshot;
use flowcube_core::{
    display_key, view, CellKey, CubeDelta, Cuboid, CuboidKey, CuboidRead, FlowCube, Route,
};
use flowcube_flowgraph::GraphRead;
use flowcube_hier::fx::splitmix64;
use flowcube_hier::{ConceptId, FxHashMap, ItemLevel, PathLevelId, Schema};
use flowcube_obs::flight::{self, FlightKind};
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A cube being served. Every cuboid is answered from one form: a
/// validated FCC2 columnar section ([`ColumnarSection`]), hydrated from
/// the snapshot file the first time a query touches it, so startup cost
/// is the metadata sections only and a `serve` process never re-mines.
pub struct ServedCube {
    /// The section source, and the immutable metadata shell (schema,
    /// spec, params, stats) every request resolves names against.
    snapshot: Arc<Snapshot>,
    /// Ingested micro-batch deltas, overlaid on each cuboid as it
    /// hydrates — shared with the cube this one was derived from.
    deltas: Vec<Arc<CubeDelta>>,
    /// Per path level, every item level probed so far — its section, or
    /// `None` when no cell is materialized there — so each section loads
    /// at most once.
    resident: RwLock<Vec<FxHashMap<ItemLevel, Option<Arc<ColumnarSection>>>>>,
    /// Per path level, the item levels of snapshot ∪ delta keys in
    /// [`view::walk_order`]: the levels a fallback walk probes. Built on
    /// the first fallback, never at open.
    stored: OnceLock<Vec<Vec<ItemLevel>>>,
    /// Responses rendered from this cube. They live and die with it: a
    /// swap drops them with the old cube, so no body rendered before an
    /// acked write is served after it. Disabled until [`AppState`]
    /// installs the cube.
    cache: ResponseCache,
}

impl ServedCube {
    /// Open the cube a snapshot file and its delta sidecar hold: resolve
    /// any compaction a crash or a failed fold left half done
    /// ([`compact::recover`]), open the snapshot, replay the sidecar.
    /// Startup, `/admin/reload` and the swap after `/admin/compact` all
    /// open this way, so none of them can serve folded deltas twice.
    pub fn open(path: &Path) -> Result<(Self, Recovery), SnapshotError> {
        let recovery = compact::recover(path)?;
        let snapshot = Snapshot::open(path)?;
        let deltas = deltalog::read_deltas(&deltalog::deltalog_path(path))?;
        Ok((Self::from_snapshot_with_deltas(snapshot, deltas), recovery))
    }

    /// Serve lazily from an opened snapshot.
    pub fn from_snapshot(snapshot: Snapshot) -> Self {
        Self::from_snapshot_with_deltas(snapshot, Vec::new())
    }

    /// Serve lazily from a snapshot plus a sequence of ingested deltas
    /// (the sidecar [`ServedCube::open`] replays). Deltas are folded per
    /// cuboid at hydration time — counts add per Lemma 4.2, one δ cut;
    /// delta-touched cells carry no exceptions until the next fully
    /// re-mined snapshot, since mining them needs the path database the
    /// server does not have.
    pub fn from_snapshot_with_deltas(snapshot: Snapshot, deltas: Vec<CubeDelta>) -> Self {
        let deltas = deltas.into_iter().map(Arc::new).collect();
        Self::over(Arc::new(snapshot), deltas)
    }

    fn over(snapshot: Arc<Snapshot>, deltas: Vec<Arc<CubeDelta>>) -> Self {
        let path_levels = snapshot.shell().spec().len();
        ServedCube {
            snapshot,
            deltas,
            resident: RwLock::new(vec![FxHashMap::default(); path_levels]),
            stored: OnceLock::new(),
            cache: ResponseCache::new(0),
        }
    }

    /// This cube with `delta` added to the overlay, over the same
    /// section source and the same earlier deltas.
    fn with_delta(&self, delta: CubeDelta) -> Self {
        let mut deltas = self.deltas.clone();
        deltas.push(Arc::new(delta));
        Self::over(self.snapshot.clone(), deltas)
    }

    /// The cube's metadata — schema, spec, params, stats — with no
    /// cuboids in it.
    pub fn shell(&self) -> &FlowCube {
        self.snapshot.shell()
    }

    /// The snapshot this cube is served from, for the metadata sections
    /// serving does not read ([`Snapshot::section`]).
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The pending deltas' cuboids at `key`, oldest first.
    fn patches(&self, key: &CuboidKey) -> Vec<&Cuboid> {
        (self.deltas.iter())
            .filter_map(|d| {
                let i = d.cuboids.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
                Some(&d.cuboids[i].1)
            })
            .collect()
    }

    /// The snapshot's cuboid (`base`) folded with `patches`: counts add,
    /// one δ cut ([`Cuboid::fold`]). With no patches, `base` as stored.
    fn fold(
        &self,
        base: Option<ColumnarSection>,
        patches: Vec<&Cuboid>,
    ) -> Result<Cuboid, SnapshotError> {
        let mut cuboid = match base {
            Some(section) => section.decode_cuboid()?,
            None => Cuboid::default(),
        };
        if !patches.is_empty() {
            cuboid.fold(patches, self.shell().params().min_support);
        }
        Ok(cuboid)
    }

    /// Load the section at `key`: read → CRC → validate. A key no
    /// pending delta touches is served as that section, never decoded;
    /// otherwise the cuboid is folded and re-encoded, and the new bytes go
    /// through the same validation. `None` when nothing at this key
    /// survives.
    ///
    /// String ids are positions in a sorted table and a delta may bring
    /// names the snapshot never interned, so a patched section carries a
    /// table built from that cuboid alone.
    fn load(&self, key: &CuboidKey) -> Result<Option<ColumnarSection>, SnapshotError> {
        let base = self.snapshot.load_cuboid(key)?;
        let patches = self.patches(key);
        if patches.is_empty() {
            return Ok(base);
        }
        let cuboid = self.fold(base, patches)?;
        if cuboid.is_empty() {
            return Ok(None);
        }
        let schema = self.shell().schema();
        let table = StringTable::from_cuboids(schema, [&cuboid]);
        let ctx = Arc::new(StringsCtx::new(table, schema));
        let bytes = encode_cuboid(&cuboid, &ctx)?;
        let label = format!("patched cuboid {:?}@{}", key.item_level, key.path_level);
        ColumnarSection::validate(bytes, &ctx, schema, &label).map(Some)
    }

    /// The served cube as one heap cube: every key of snapshot ∪ deltas
    /// through the fold hydration runs, so its cuboids are exactly the
    /// ones this cube answers from. What compaction writes, and the one
    /// eager decode of a snapshot (with no deltas, its cube as stored).
    /// A fold recounts `cells_materialized`, as `apply_delta` and
    /// `merge_partitions` do.
    pub fn folded_cube(&self) -> Result<FlowCube, SnapshotError> {
        let keys = self.keys();
        let mut cuboids = Vec::with_capacity(keys.len());
        for key in keys {
            let cuboid = self.fold(self.snapshot.load_cuboid(key)?, self.patches(key))?;
            if !cuboid.is_empty() {
                cuboids.push((key.clone(), cuboid));
            }
        }
        let shell = self.shell();
        let mut stats = shell.stats().clone();
        if !self.deltas.is_empty() {
            stats.cells_materialized = cuboids.iter().map(|(_, c)| c.len()).sum();
        }
        let (schema, spec) = (shell.schema().clone(), shell.spec().clone());
        let mut cube = FlowCube::from_parts(schema, spec, shell.params().clone(), stats);
        for (key, cuboid) in cuboids {
            cube.insert_cuboid(key, cuboid);
        }
        Ok(cube)
    }

    /// Every cuboid key of the served cube, sorted: snapshot ∪ delta keys.
    fn keys(&self) -> Vec<&CuboidKey> {
        let delta_keys = self.deltas.iter().flat_map(|d| &d.cuboids).map(|(k, _)| k);
        let mut keys: Vec<&CuboidKey> = self.snapshot.cuboid_keys().chain(delta_keys).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The section at `(item level, path level)`, if any cell is
    /// materialized there — hydrated on first touch. A load failure is not
    /// memoized, so a transient fault costs one request.
    fn cuboid(
        &self,
        item_level: &ItemLevel,
        path_level: PathLevelId,
    ) -> Result<Option<Arc<ColumnarSection>>, SnapshotError> {
        let pl = path_level as usize;
        match self.resident.read().get(pl) {
            Some(at_level) => {
                if let Some(section) = at_level.get(item_level) {
                    return Ok(section.clone());
                }
            }
            None => return Ok(None), // no such path level: nothing stored
        }
        // Held across the load, so racing workers do not each read (and
        // re-encode) the same section.
        let mut resident = self.resident.write();
        if let Some(section) = resident[pl].get(item_level) {
            return Ok(section.clone());
        }
        let key = CuboidKey {
            item_level: item_level.clone(),
            path_level,
        };
        let section = self.load(&key)?.map(Arc::new);
        resident[pl].insert(key.item_level, section.clone());
        Ok(section)
    }

    /// The item levels a fallback walk at `path_level` probes, in walk
    /// order: every level of snapshot ∪ delta keys there.
    fn stored_levels(&self, path_level: PathLevelId) -> &[ItemLevel] {
        let stored = self.stored.get_or_init(|| {
            let mut by_level = vec![Vec::new(); self.shell().spec().len()];
            for key in self.keys() {
                if let Some(levels) = by_level.get_mut(key.path_level as usize) {
                    levels.push(key.item_level.clone());
                }
            }
            by_level.into_iter().map(view::walk_order).collect()
        });
        stored.get(path_level as usize).map_or(&[], Vec::as_slice)
    }

    /// Point lookup with ancestor fallback ([`view::lookup_route`]): the
    /// route taken, the answering section, and the cell's row in it. Each
    /// probe of the walk hydrates only the section it asks about; the
    /// first section that fails to load ends the walk and is the answer.
    fn lookup(
        &self,
        key: &[ConceptId],
        path_level: PathLevelId,
    ) -> Result<(Route, Arc<ColumnarSection>, usize), ApiError> {
        let stored = || self.stored_levels(path_level);
        let found = view::lookup_route(self.shell().schema(), key, stored, |lvl, k| {
            match self.cuboid(lvl, path_level) {
                Ok(section) => {
                    let section = section?;
                    let row = section.find(k)?;
                    Some(Ok((section, row)))
                }
                // Stop the walk: the lookup fails with `e`.
                Err(e) => Some(Err(e)),
            }
        });
        match found {
            Some((route, Ok((section, row)))) => Ok((route, section, row)),
            Some((_, Err(e))) => Err(e.into()),
            None => Err(ApiError::NotFound(
                "no materialized cell or ancestor".into(),
            )),
        }
    }

    /// Cuboids currently resident in memory.
    pub fn resident_cuboids(&self) -> usize {
        let resident = self.resident.read();
        resident.iter().flat_map(|m| m.values().flatten()).count()
    }

    /// Cells currently resident in memory.
    pub fn resident_cells(&self) -> usize {
        let resident = self.resident.read();
        (resident.iter())
            .flat_map(|m| m.values().flatten())
            .map(|s| s.num_cells())
            .sum()
    }

    /// Total cuboids in the served cube (snapshot ∪ delta keys).
    pub fn total_cuboids(&self) -> usize {
        self.keys().len()
    }

    /// Ingested deltas pending in this served cube's overlay.
    pub fn pending_deltas(&self) -> usize {
        self.deltas.len()
    }

    /// Total paths contributed by the pending deltas.
    pub fn pending_delta_paths(&self) -> u64 {
        self.deltas.iter().map(|d| d.paths).sum()
    }

    /// The snapshot file backing this cube — the hot-reload source and
    /// the anchor of the delta sidecar.
    pub fn snapshot_path(&self) -> PathBuf {
        self.snapshot.path().to_path_buf()
    }
}

/// Worker-pool health: crash counting and the degradation threshold.
///
/// A worker thread that panics is respawned by the server's supervisor,
/// which has the service record the crash here. The query API's
/// `/healthz` reports `degraded` (with `ok: false`) once
/// `degraded_after` crashes have accumulated — the server still
/// answers, but an orchestrator watching health should recycle it.
#[derive(Default)]
pub struct HealthState {
    worker_crashes: AtomicU64,
    /// Crash count at which health turns degraded; `0` disables.
    degraded_after: AtomicU64,
}

impl HealthState {
    /// Record one worker panic; returns the new total.
    pub fn record_worker_crash(&self) -> u64 {
        flight::record(FlightKind::WorkerCrash, 0, 0, 0, 0);
        self.worker_crashes.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Worker panics observed since startup.
    pub fn worker_crashes(&self) -> u64 {
        self.worker_crashes.load(Ordering::SeqCst)
    }

    /// Set the degradation threshold (`0` = never degrade).
    pub fn set_degraded_after(&self, n: u64) {
        self.degraded_after.store(n, Ordering::SeqCst);
    }

    /// Whether accumulated crashes crossed the threshold.
    pub fn degraded(&self) -> bool {
        let threshold = self.degraded_after.load(Ordering::SeqCst);
        threshold > 0 && self.worker_crashes() >= threshold
    }
}

/// Per-request execution limits, carried from the worker into handlers.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestCtx {
    /// When set, the request must answer by this instant; past it the
    /// response is `503 deadline exceeded`. The check is cooperative —
    /// it runs before dispatch and again after the handler (which may
    /// have hydrated cuboids from disk); a handler is never interrupted
    /// mid-flight.
    pub deadline: Option<Instant>,
    /// Microseconds a fresh connection sat in the accept queue before a
    /// worker picked it up; `None` when the runtime did not see a wait —
    /// a parked connection (it waited in the kernel), a pipelined
    /// request, direct dispatch.
    pub queue_wait_us: Option<u64>,
}

impl RequestCtx {
    /// A context whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        RequestCtx {
            deadline: Some(Instant::now() + timeout),
            ..Default::default()
        }
    }

    fn check_deadline(&self) -> Result<(), ApiError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(ApiError::Deadline),
            _ => Ok(()),
        }
    }
}

/// Record a swap of the served cube — or a failed attempt at one — in
/// the flight ring, labelled with its cause: `reload`, `ingest` or
/// `compact`. Admin routes only, so interning here is off the request
/// path.
fn record_swap(cause: &'static str, failed: bool, value: u64) {
    let label = flight::intern(cause);
    flight::record(FlightKind::Reload, 0, label, u16::from(failed), value);
}

/// Everything a worker needs to answer requests. The served cube sits
/// behind an `RwLock<Arc<..>>` so a hot reload can atomically swap in a
/// freshly validated snapshot while in-flight requests keep the cube
/// they started with.
pub struct AppState {
    scope: Scope,
    cube: RwLock<Arc<ServedCube>>,
    pub health: HealthState,
    /// Structured JSON access log; `None` disables request logging.
    pub access: Option<AccessLog>,
    /// Serializes the admin operations that read, write or swap the
    /// snapshot and its sidecar (reload, ingest, compact), so no swap
    /// overtakes another and no open sees a fold half done.
    admin: Mutex<()>,
    /// Auto-compaction size threshold: sidecar bytes after which an
    /// ingest triggers a fold (`0` disables).
    compact_after_bytes: AtomicU64,
    /// Auto-compaction age threshold: seconds the oldest unfolded delta
    /// may wait before an ingest triggers a fold (`0` disables).
    compact_after_secs: AtomicU64,
    /// When the current run of unfolded deltas started.
    pending_since: Mutex<Option<Instant>>,
}

impl AppState {
    /// Serve `cube`, caching up to `cache_capacity` rendered responses
    /// per installed cube (`0` disables the cache).
    pub fn new(mut cube: ServedCube, cache_capacity: usize) -> Self {
        cube.cache = ResponseCache::new(cache_capacity);
        AppState {
            scope: Scope::new("serve", ENDPOINTS),
            cube: RwLock::new(Arc::new(cube)),
            health: HealthState::default(),
            access: None,
            admin: Mutex::new(()),
            compact_after_bytes: AtomicU64::new(0),
            compact_after_secs: AtomicU64::new(0),
            pending_since: Mutex::new(None),
        }
    }

    /// Configure automatic sidecar compaction: fold once the sidecar
    /// exceeds `after_bytes`, or once the oldest unfolded delta is older
    /// than `after_secs`. `None` disables that trigger. Checked after
    /// every successful sidecar ingest.
    pub fn set_compact_policy(&self, after_bytes: Option<u64>, after_secs: Option<u64>) {
        self.compact_after_bytes
            .store(after_bytes.unwrap_or(0), Ordering::Relaxed);
        self.compact_after_secs
            .store(after_secs.unwrap_or(0), Ordering::Relaxed);
    }

    /// Attach a structured access log (builder style).
    pub fn with_access_log(mut self, log: AccessLog) -> Self {
        self.access = Some(log);
        self
    }

    /// The cube requests currently answer from. Cloning the `Arc` means
    /// a concurrent reload never invalidates a request mid-flight.
    pub fn cube(&self) -> Arc<ServedCube> {
        self.cube.read().clone()
    }

    /// Swap in a new cube with an empty response cache; the old cube's
    /// cached responses go with it.
    pub fn install_cube(&self, mut cube: ServedCube) {
        let mut current = self.cube.write();
        cube.cache = current.cache.renewed();
        *current = Arc::new(cube);
        drop(current);
        flowcube_obs::gauge_set("serve.cache.entries", 0.0);
    }

    /// Hot-reload the snapshot backing this server.
    ///
    /// The file (at the path the server was started from) is reopened
    /// the one way ([`ServedCube::open`]) and **fully validated** —
    /// header, index, and a CRC + decode pass over every section — before
    /// anything changes. Only then is the live cube swapped; any failure
    /// leaves the old cube serving untouched (rollback is the default,
    /// not an action).
    pub fn reload(&self) -> Result<ReloadResponse, ApiError> {
        let _span = flowcube_obs::span!("serve.reload");
        let _admin = self.admin.lock();
        let path = self.cube().snapshot_path();
        let reloaded = ServedCube::open(&path).and_then(|(served, _)| {
            served.snapshot.verify_all()?;
            Ok(served)
        });
        match reloaded {
            Ok(served) => {
                let cuboids = served.snapshot.num_cuboids();
                let deltas = served.pending_deltas();
                self.install_cube(served);
                flowcube_obs::counter_add("serve.reload.ok", 1);
                record_swap("reload", false, cuboids as u64);
                Ok(ReloadResponse {
                    reloaded: true,
                    cuboids,
                    deltas,
                })
            }
            Err(e) => {
                flowcube_obs::counter_add("serve.reload.failed", 1);
                record_swap("reload", true, 0);
                Err(e.into())
            }
        }
    }

    /// Ingest one micro-batch delta (the JSON body of
    /// `POST /admin/ingest`) into the live cube, without ever taking the
    /// server offline.
    ///
    /// Validate, append to the `<snapshot>.deltas` sidecar (durable
    /// across restarts and reloads), then swap in the served cube with
    /// the delta added to its overlay — nothing is reopened or re-read.
    /// In-flight requests keep the cube they started with (`Arc` swap)
    /// and its cached responses.
    ///
    /// Exceptions on delta-touched cells are *cleared*, not re-mined —
    /// mining is holistic (Lemma 4.3) and needs the path database, which
    /// the serving tier does not carry. They return with the next fully
    /// mined snapshot (`flowcube ingest` + `/admin/reload`).
    pub fn ingest(&self, body: &[u8]) -> Result<IngestResponse, ApiError> {
        let _span = flowcube_obs::span!("serve.ingest");
        let timer = flowcube_obs::Timer::start("serve.ingest");
        let result = self.ingest_inner(body);
        let elapsed = timer.stop();
        flowcube_obs::histogram_record("serve.ingest.apply_us", elapsed.as_secs_f64() * 1e6);
        match &result {
            Ok(resp) => {
                flowcube_obs::counter_add("serve.ingest.ok", 1);
                record_swap("ingest", false, resp.paths);
                self.pending_since.lock().get_or_insert_with(Instant::now);
                self.maybe_auto_compact();
            }
            Err(_) => {
                flowcube_obs::counter_add("serve.ingest.failed", 1);
                record_swap("ingest", true, 0);
            }
        }
        result
    }

    /// Fold the delta sidecar into the snapshot (marker-file protocol,
    /// see [`crate::compact`](mod@crate::compact)) and swap in the compacted cube, reopened
    /// the one way ([`ServedCube::open`]). The served data is unchanged —
    /// compaction writes exactly the cuboids the overlay serves — but the
    /// sidecar shrinks to only the deltas appended mid-fold. A fold that
    /// fails leaves the old cube serving; the next open finishes or
    /// discards it.
    pub fn compact(&self) -> Result<CompactResponse, ApiError> {
        let _span = flowcube_obs::span!("serve.compact.admin");
        let _admin = self.admin.lock();
        let path = self.cube().snapshot_path();
        let compacted = crate::compact::compact(&path)
            .and_then(|report| Ok((report, ServedCube::open(&path)?.0)));
        let (report, served) = match compacted {
            Ok(done) => done,
            Err(e) => {
                record_swap("compact", true, 0);
                return Err(e);
            }
        };
        self.install_cube(served);
        *self.pending_since.lock() = (report.remaining_deltas > 0).then(Instant::now);
        record_swap("compact", false, report.folded_deltas as u64);
        Ok(CompactResponse {
            compacted: report.folded_deltas > 0,
            folded_deltas: report.folded_deltas,
            folded_paths: report.folded_paths,
            snapshot_bytes: report.snapshot_bytes,
            remaining_deltas: report.remaining_deltas,
        })
    }

    /// Fire [`Self::compact`] when the configured size/age thresholds
    /// are crossed. Failures only count a metric — the sidecar keeps
    /// the data, and the next ingest retries.
    fn maybe_auto_compact(&self) {
        let after_bytes = self.compact_after_bytes.load(Ordering::Relaxed);
        let after_secs = self.compact_after_secs.load(Ordering::Relaxed);
        if after_bytes == 0 && after_secs == 0 {
            return;
        }
        let log = deltalog::deltalog_path(&self.cube().snapshot_path());
        let size = std::fs::metadata(&log).map(|m| m.len()).unwrap_or(0);
        if size == 0 {
            return;
        }
        let size_due = after_bytes > 0 && size >= after_bytes;
        let age_due = after_secs > 0
            && self
                .pending_since
                .lock()
                .is_some_and(|t| t.elapsed() >= Duration::from_secs(after_secs));
        if !(size_due || age_due) {
            return;
        }
        flowcube_obs::counter_add("serve.compact.auto", 1);
        if self.compact().is_err() {
            flowcube_obs::counter_add("serve.compact.auto_failed", 1);
        }
    }

    fn ingest_inner(&self, body: &[u8]) -> Result<IngestResponse, ApiError> {
        let _admin = self.admin.lock();
        let text = std::str::from_utf8(body)
            .map_err(|_| ApiError::BadRequest("delta body is not UTF-8".into()))?;
        let delta: CubeDelta = serde_json::from_str(text)
            .map_err(|e| ApiError::BadRequest(format!("delta body: {e}")))?;
        let served = self.cube();
        // Reject a structurally incompatible delta *before* it is made
        // durable or touches the cube.
        delta.validate_against(served.shell())?;
        let (paths, delta_cells) = (delta.paths, delta.total_cells());
        deltalog::append_delta(&deltalog::deltalog_path(&served.snapshot_path()), &delta)?;
        let next = served.with_delta(delta);
        let pending_deltas = next.pending_deltas();
        self.install_cube(next);
        Ok(IngestResponse {
            ingested: true,
            paths,
            delta_cells,
            mode: "sidecar",
            pending_deltas,
        })
    }
}

// ---- response shapes ----------------------------------------------------

#[derive(Serialize)]
struct ErrorResponse {
    error: String,
}

#[derive(Serialize)]
struct CellResponse {
    cell: String,
    level: String,
    /// Whether the exact requested cell was materialized (vs. answered
    /// from the nearest materialized ancestor).
    exact: bool,
    source_cell: String,
    support: u64,
    nodes: usize,
    exceptions: usize,
    description: String,
}

#[derive(Serialize)]
struct CellRow {
    cell: String,
    support: u64,
    nodes: usize,
    exceptions: usize,
}

#[derive(Serialize)]
struct CellsResponse {
    count: usize,
    cells: Vec<CellRow>,
}

#[derive(Serialize)]
struct RollupResponse {
    cell: String,
    parent: String,
    support: u64,
    nodes: usize,
}

#[derive(Serialize)]
struct PathRow {
    locations: Vec<String>,
    probability: f64,
}

#[derive(Serialize)]
struct TopKResponse {
    cell: String,
    /// Support of the answering cell — the weight a federation front
    /// needs to merge per-shard probability lists into a global top-k.
    support: u64,
    paths: Vec<PathRow>,
}

#[derive(Serialize)]
struct ProbabilityResponse {
    cell: String,
    probability: f64,
}

#[derive(Serialize)]
struct ExceptionRow {
    node: Vec<String>,
    condition: Vec<String>,
    support: u64,
    deviation: f64,
    kind: String,
}

#[derive(Serialize)]
struct ExceptionsResponse {
    cell: String,
    count: usize,
    exceptions: Vec<ExceptionRow>,
}

#[derive(Serialize)]
struct StatsResponse {
    cuboids: usize,
    resident_cuboids: usize,
    resident_cells: usize,
    /// Always `true`: every served cube is a snapshot file. Kept so
    /// clients that read it keep working.
    snapshot_backed: bool,
    /// Ingested deltas overlaid on the snapshot.
    pending_deltas: usize,
    pending_delta_paths: u64,
    summary: String,
    build: flowcube_core::BuildStats,
}

#[derive(Serialize)]
struct HealthResponse {
    ok: bool,
    status: &'static str,
    worker_crashes: u64,
}

/// Body of a successful `POST /admin/reload`.
#[derive(Serialize)]
pub struct ReloadResponse {
    pub reloaded: bool,
    pub cuboids: usize,
    /// Sidecar deltas replayed on top of the reloaded snapshot.
    pub deltas: usize,
}

/// Body of a successful `POST /admin/ingest`.
#[derive(Serialize)]
pub struct IngestResponse {
    pub ingested: bool,
    /// Paths the ingested delta contributed.
    pub paths: u64,
    /// Cells carried by the delta (before iceberg re-enforcement).
    pub delta_cells: usize,
    /// Always `"sidecar"`: the delta is appended to the snapshot's
    /// sidecar, so it is durable, and overlaid lazily. Kept so clients
    /// that read it keep working.
    pub mode: &'static str,
    /// Deltas now pending in the overlay.
    pub pending_deltas: usize,
}

/// Body of a successful `POST /admin/compact`.
#[derive(Serialize)]
pub struct CompactResponse {
    /// Whether anything was folded (`false` = empty sidecar, no-op).
    pub compacted: bool,
    /// Sidecar deltas folded into the snapshot.
    pub folded_deltas: usize,
    /// Paths those deltas carried.
    pub folded_paths: u64,
    /// Size of the rewritten snapshot file.
    pub snapshot_bytes: u64,
    /// Deltas still pending in the sidecar (appended mid-fold).
    pub remaining_deltas: usize,
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| format!("{{\"error\":\"encoding: {e}\"}}"))
}

// ---- parameter parsing --------------------------------------------------

fn require_param<'a>(req: &'a Request, key: &str) -> Result<&'a str, ApiError> {
    req.param(key)
        .ok_or_else(|| ApiError::BadRequest(format!("missing parameter {key:?}")))
}

fn parse_num<T: std::str::FromStr>(req: &Request, key: &str, default: T) -> Result<T, ApiError> {
    match req.param(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ApiError::BadRequest(format!("parameter {key}={v:?} is not a number"))),
    }
}

/// Resolve `cell` + `level` parameters against the cube.
fn resolve_cell(cube: &FlowCube, req: &Request) -> Result<(CellKey, PathLevelId), ApiError> {
    let spec = require_param(req, "cell")?;
    let key = cube.require_key(spec)?;
    let level_name = match req.param("level") {
        Some(name) => name.to_string(),
        None => cube.spec().level(0).name.clone(),
    };
    let pl = cube.require_path_level(&level_name)?;
    Ok((key, pl))
}

/// Parse `at=2,1` into an item level, validated against the schema.
fn parse_item_level(cube: &FlowCube, req: &Request) -> Result<ItemLevel, ApiError> {
    let at = require_param(req, "at")?;
    let levels: Result<Vec<u8>, _> = at.split(',').map(|s| s.trim().parse::<u8>()).collect();
    let levels =
        levels.map_err(|_| ApiError::BadRequest(format!("at={at:?} is not a level list")))?;
    if levels.len() != cube.schema().num_dims() {
        return Err(ApiError::BadRequest(format!(
            "at={at:?} has {} levels, schema has {} dimensions",
            levels.len(),
            cube.schema().num_dims()
        )));
    }
    Ok(ItemLevel(levels))
}

fn parse_dim(cube: &FlowCube, req: &Request) -> Result<usize, ApiError> {
    let raw = require_param(req, "dim")?;
    let dim: usize = raw
        .parse()
        .map_err(|_| ApiError::BadRequest(format!("parameter dim={raw:?} is not a number")))?;
    let num_dims = cube.schema().num_dims();
    if dim >= num_dims {
        return Err(flowcube_core::CoreError::DimensionOutOfRange { dim, num_dims }.into());
    }
    Ok(dim)
}

fn location_names(schema: &Schema, ids: &[ConceptId]) -> Vec<String> {
    let h = schema.locations();
    ids.iter().map(|&c| h.name_of(c).to_string()).collect()
}

/// Render a multi-cell response (drilldown / slice / dice): one row per
/// key `select` picks from the section that is materialized in it.
fn cells_response(
    schema: &Schema,
    section: Option<Arc<ColumnarSection>>,
    select: impl FnOnce(&ColumnarSection) -> Vec<CellKey>,
) -> String {
    let cells: Vec<CellRow> = section.map_or_else(Vec::new, |section| {
        select(&section)
            .into_iter()
            .filter_map(|k| {
                section.stats(&k).map(|s| CellRow {
                    cell: display_key(&k, schema),
                    support: s.support,
                    nodes: s.nodes - 1,
                    exceptions: s.exceptions,
                })
            })
            .collect()
    });
    json(&CellsResponse {
        count: cells.len(),
        cells,
    })
}

// ---- endpoint handlers --------------------------------------------------

fn handle_cell(served: &ServedCube, req: &Request) -> Result<String, ApiError> {
    let cube = served.shell();
    let (key, pl) = resolve_cell(cube, req)?;
    let (route, section, row) = served.lookup(&key, pl)?;
    let stats = section.cell(row).stats();
    let level = &cube.spec().level(pl).name;
    let source_cell = display_key(&route.key, cube.schema());
    Ok(json(&CellResponse {
        cell: display_key(&key, cube.schema()),
        level: level.clone(),
        exact: route.exact,
        support: stats.support,
        nodes: stats.nodes - 1,
        exceptions: stats.exceptions,
        description: format!(
            "{source_cell} @ {level}: {} paths, {} nodes, {} exceptions",
            stats.support,
            stats.nodes - 1,
            stats.exceptions
        ),
        source_cell,
    }))
}

fn handle_rollup(served: &ServedCube, req: &Request) -> Result<String, ApiError> {
    let cube = served.shell();
    let (key, pl) = resolve_cell(cube, req)?;
    let dim = parse_dim(cube, req)?;
    let (parent_level, parent_key) =
        view::rollup_target(cube.schema(), &key, dim).ok_or_else(|| {
            ApiError::NotFound(format!("dimension {dim} is already fully aggregated"))
        })?;
    let stats = served
        .cuboid(&parent_level, pl)?
        .and_then(|section| section.stats(&parent_key))
        .ok_or_else(|| ApiError::NotFound("parent cell not materialized".into()))?;
    Ok(json(&RollupResponse {
        cell: display_key(&key, cube.schema()),
        parent: display_key(&parent_key, cube.schema()),
        support: stats.support,
        nodes: stats.nodes - 1,
    }))
}

fn handle_drilldown(served: &ServedCube, req: &Request) -> Result<String, ApiError> {
    let cube = served.shell();
    let (key, pl) = resolve_cell(cube, req)?;
    let dim = parse_dim(cube, req)?;
    let (child_level, candidates) = view::drilldown_candidates(cube.schema(), &key, dim);
    let section = served.cuboid(&child_level, pl)?;
    Ok(cells_response(cube.schema(), section, |_| candidates))
}

fn handle_slice(served: &ServedCube, req: &Request) -> Result<String, ApiError> {
    let cube = served.shell();
    let item_level = parse_item_level(cube, req)?;
    let pl = cube.require_path_level(require_param(req, "level")?)?;
    let dim = parse_dim(cube, req)?;
    let name = require_param(req, "value")?;
    let value =
        cube.schema().dim(dim as u8).id_of(name).map_err(|_| {
            ApiError::NotFound(format!("unknown value {name:?} in dimension {dim}"))
        })?;
    let section = served.cuboid(&item_level, pl)?;
    Ok(cells_response(cube.schema(), section, |section| {
        view::slice_keys(section, dim, value)
    }))
}

fn handle_dice(served: &ServedCube, req: &Request) -> Result<String, ApiError> {
    let cube = served.shell();
    let item_level = parse_item_level(cube, req)?;
    let pl = cube.require_path_level(require_param(req, "level")?)?;
    // `where=0:shoes,1:nike` — key[dim] must equal the named value.
    let mut constraints: Vec<(usize, ConceptId)> = Vec::new();
    if let Some(spec) = req.param("where") {
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (d, name) = part
                .split_once(':')
                .ok_or_else(|| ApiError::BadRequest(format!("bad where constraint {part:?}")))?;
            let dim: usize = d.trim().parse().map_err(|_| {
                ApiError::BadRequest(format!("bad dimension in constraint {part:?}"))
            })?;
            let num_dims = cube.schema().num_dims();
            if dim >= num_dims {
                return Err(flowcube_core::CoreError::DimensionOutOfRange { dim, num_dims }.into());
            }
            let value = cube
                .schema()
                .dim(dim as u8)
                .id_of(name.trim())
                .map_err(|_| {
                    ApiError::NotFound(format!("unknown value {name:?} in dimension {dim}"))
                })?;
            constraints.push((dim, value));
        }
    }
    let section = served.cuboid(&item_level, pl)?;
    Ok(cells_response(cube.schema(), section, |section| {
        view::dice_keys(section, |key| constraints.iter().all(|&(d, v)| key[d] == v))
    }))
}

fn handle_topk(served: &ServedCube, req: &Request) -> Result<String, ApiError> {
    let cube = served.shell();
    let (key, pl) = resolve_cell(cube, req)?;
    let k: usize = parse_num(req, "k", 5)?;
    let (route, section, row) = served.lookup(&key, pl)?;
    let cell = section.cell(row);
    Ok(json(&TopKResponse {
        cell: display_key(&route.key, cube.schema()),
        support: cell.support,
        paths: flowcube_flowgraph::top_k_paths(&cell.graph(), k)
            .into_iter()
            .map(|p| PathRow {
                locations: location_names(cube.schema(), &p.locations),
                probability: p.probability,
            })
            .collect(),
    }))
}

fn handle_probability(served: &ServedCube, req: &Request) -> Result<String, ApiError> {
    let cube = served.shell();
    let (key, pl) = resolve_cell(cube, req)?;
    let path = cube.require_path(require_param(req, "path")?)?;
    let (route, section, row) = served.lookup(&key, pl)?;
    Ok(json(&ProbabilityResponse {
        cell: display_key(&route.key, cube.schema()),
        probability: flowcube_flowgraph::path_probability(&section.cell(row).graph(), &path),
    }))
}

fn handle_exceptions(served: &ServedCube, req: &Request) -> Result<String, ApiError> {
    let cube = served.shell();
    let (key, pl) = resolve_cell(cube, req)?;
    let (route, section, row) = served.lookup(&key, pl)?;
    let cell = section.cell(row);
    let graph = cell.graph();
    let h = cube.schema().locations();
    let rows: Vec<ExceptionRow> = cell
        .exceptions()
        .iter()
        .map(|e| ExceptionRow {
            node: location_names(cube.schema(), &graph.prefix_of(e.node)),
            condition: e
                .condition
                .iter()
                .map(|&(n, d)| format!("{}={d}", h.name_of(graph.location(n))))
                .collect(),
            support: e.support,
            deviation: e.deviation,
            kind: match e.detail {
                flowcube_flowgraph::ExceptionDetail::Duration { .. } => "duration".into(),
                flowcube_flowgraph::ExceptionDetail::Transition { .. } => "transition".into(),
            },
        })
        .collect();
    Ok(json(&ExceptionsResponse {
        cell: display_key(&route.key, cube.schema()),
        count: rows.len(),
        exceptions: rows,
    }))
}

fn handle_stats(served: &ServedCube) -> Result<String, ApiError> {
    let stats = served.shell().stats();
    Ok(json(&StatsResponse {
        cuboids: served.total_cuboids(),
        resident_cuboids: served.resident_cuboids(),
        resident_cells: served.resident_cells(),
        snapshot_backed: true,
        pending_deltas: served.pending_deltas(),
        pending_delta_paths: served.pending_delta_paths(),
        summary: stats.summary(),
        build: stats.clone(),
    }))
}

/// `/metrics` with format negotiation: Prometheus text exposition when
/// the client asks for it (`?format=prometheus`, or an `Accept` header
/// naming `text/plain`), the original JSON export otherwise — existing
/// scrapers keep working unchanged.
fn metrics_response(req: &Request) -> HttpResponse {
    let snapshot = flowcube_obs::snapshot();
    let accept = req.header("accept").unwrap_or("");
    let prometheus = match req.param("format") {
        Some(fmt) => fmt == "prometheus",
        None => accept.contains("text/plain"),
    };
    if prometheus {
        HttpResponse {
            status: 200,
            body: flowcube_obs::export::prometheus_text(&snapshot),
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
        }
    } else {
        HttpResponse::json(200, flowcube_obs::export::metrics_json(&snapshot))
    }
}

#[derive(Serialize)]
struct FlightResponse {
    enabled: bool,
    capacity: usize,
    recorded_total: u64,
    events: Vec<flight::FlightEvent>,
}

/// Paths and metric tags of the built-in routes.
pub(crate) const BUILTIN_ENDPOINTS: &[(&str, &str)] =
    &[("/metrics", "metrics"), ("/debug/flight", "debug_flight")];

/// The routes every service answers the same way, from process-global
/// state: the metrics registry and the flight ring.
fn builtin(req: &Request) -> Option<HttpResponse> {
    if req.method != "GET" {
        return None;
    }
    match req.path.as_str() {
        "/metrics" => Some(metrics_response(req)),
        "/debug/flight" => Some(HttpResponse::json(
            200,
            json(&FlightResponse {
                enabled: flight::is_enabled(),
                capacity: flight::CAPACITY,
                recorded_total: flight::recorded_total(),
                events: flight::snapshot(),
            }),
        )),
        _ => None,
    }
}

// ---- dispatch -----------------------------------------------------------

/// Endpoints whose responses are cached: the flowgraph-heavy ones, where
/// a response may require walking an entire cell graph.
fn cacheable(path: &str) -> bool {
    matches!(
        path,
        "/paths/topk" | "/paths/probability" | "/exceptions" | "/drilldown"
    )
}

/// The query API's paths and their metric tags.
const ENDPOINTS: &[(&str, &str)] = &[
    ("/cell", "cell"),
    ("/rollup", "rollup"),
    ("/drilldown", "drilldown"),
    ("/slice", "slice"),
    ("/dice", "dice"),
    ("/paths/topk", "paths_topk"),
    ("/paths/probability", "paths_probability"),
    ("/exceptions", "exceptions"),
    ("/stats", "stats"),
    ("/healthz", "healthz"),
    ("/admin/reload", "admin_reload"),
    ("/admin/ingest", "admin_ingest"),
    ("/admin/compact", "admin_compact"),
];

/// Every routable `GET` endpoint tag: the tags of `ENDPOINTS` and
/// `BUILTIN_ENDPOINTS` but the `/admin/*` `POST` routes. A scrape
/// conformance check walks this list and fails if any of them is missing
/// a per-endpoint latency histogram after traffic — so a new route can't
/// silently ship without observability.
pub fn registered_endpoints() -> &'static [&'static str] {
    static TAGS: OnceLock<Vec<&'static str>> = OnceLock::new();
    TAGS.get_or_init(|| {
        ENDPOINTS
            .iter()
            .chain(BUILTIN_ENDPOINTS)
            .filter(|(path, _)| !path.starts_with("/admin/"))
            .map(|&(_, tag)| tag)
            .collect()
    })
}

/// The `status` label values of the per-endpoint latency histograms,
/// and the suffixes of the `{scope}.responses.*` counters.
pub(crate) const STATUS_CLASSES: [&str; 6] = ["1xx", "2xx", "3xx", "4xx", "5xx", "other"];

fn status_class(status: u16) -> usize {
    match status / 100 {
        n @ 1..=5 => n as usize - 1,
        _ => 5,
    }
}

// ---- request identity ---------------------------------------------------

/// FNV-1a over a client-supplied request id — the numeric trace id that
/// flight events carry for it.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-process seed mixed into generated request ids so two servers
/// started in the same instant don't mint colliding ids.
fn trace_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(nanos ^ ((std::process::id() as u64) << 32))
    })
}

/// An inbound `X-Request-Id` is honored only when it is shaped like an
/// id — bounded length, token characters. Anything else (header
/// smuggling attempts, binary noise) gets a fresh server-minted id.
fn valid_request_id(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 128
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'))
}

/// The id the envelope echoed for a request whose trace id is `trace`:
/// its well-formed inbound `X-Request-Id`, or the one minted for it. A
/// service that calls other tiers forwards this id, so their flight
/// rings name the request as this tier's does.
pub fn echoed_request_id(req: &Request, trace: u64) -> String {
    match req.header("x-request-id") {
        Some(id) if valid_request_id(id) => id.to_string(),
        _ => format!("{trace:016x}"),
    }
}

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// The request's identity: honor a well-formed inbound `X-Request-Id`,
/// mint one otherwise. Returns the string id (echoed to the client on
/// every response) and the numeric trace id recorded on flight events.
fn assign_request_id(req: &Request) -> (String, u64) {
    let trace = match req.header("x-request-id") {
        Some(id) if valid_request_id(id) => fnv1a(id),
        _ => splitmix64(trace_seed() ^ NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)),
    };
    (echoed_request_id(req, trace), trace)
}

/// A fully-rendered response: status, body, content type, and any extra
/// headers (`X-Request-Id`, `Retry-After`) to emit alongside it.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
    pub content_type: &'static str,
    pub headers: Vec<(String, String)>,
}

impl HttpResponse {
    /// A JSON response with no extra headers.
    pub fn json(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            body,
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// First value of a response header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Answer one request on behalf of `service`, under `ctx`'s limits. This
/// is the request envelope every tier shares — the observability
/// pipeline around [`Service::route`]:
///
/// - assigns the request id (honoring inbound `X-Request-Id`) and
///   echoes it back on the response,
/// - records flight `RequestStart`/`RequestEnd` events keyed by the
///   numeric trace id,
/// - records latency into the flat histograms and into the labeled
///   `{scope}.request.latency_us{endpoint=..,status=..}` family, and
///   the queue wait,
/// - answers the built-in `/metrics` and `/debug/flight` itself,
/// - appends a structured access-log entry, embedding the flight
///   recorder window when the response is 5xx or past the slow
///   threshold.
pub fn handle_request<S: Service>(service: &S, req: &Request, ctx: &RequestCtx) -> HttpResponse {
    let start = Instant::now();
    let scope = service.scope();
    let endpoint = scope.endpoint(&req.path);
    let (tag, label) = (endpoint.tag, endpoint.label);
    let (id, trace) = assign_request_id(req);
    let queue_wait_us = ctx.queue_wait_us.unwrap_or(0);
    flight::record(FlightKind::RequestStart, trace, label, 0, queue_wait_us);
    flowcube_obs::counter_add(&scope.requests_total, 1);
    flowcube_obs::counter_add(&endpoint.requests, 1);
    if ctx.queue_wait_us.is_some() {
        flowcube_obs::histogram_record(&scope.queue_wait_us, queue_wait_us as f64);
    }

    let mut resp = builtin(req).unwrap_or_else(|| service.route(req, ctx, trace));

    let latency_us = start.elapsed().as_micros() as u64;
    let us = latency_us as f64;
    let class = status_class(resp.status);
    flowcube_obs::histogram_record(&scope.latency_us, us);
    flowcube_obs::histogram_record(&endpoint.latency_us, us);
    flowcube_obs::histogram_record(&endpoint.request_latency_us[class], us);
    flowcube_obs::counter_add(&scope.responses[class], 1);
    flight::record(
        FlightKind::RequestEnd,
        trace,
        label,
        resp.status,
        latency_us,
    );
    resp.headers.push(("X-Request-Id".to_string(), id.clone()));

    if let Some(log) = service.access_log() {
        let dump_reason = if resp.status >= 500 {
            "5xx"
        } else if log.is_slow(latency_us) {
            "slow"
        } else {
            ""
        };
        log.log(&AccessEntry {
            ts_ms: unix_millis(),
            id,
            method: req.method.clone(),
            path: req.path.clone(),
            query: req.query.clone(),
            endpoint: tag.to_string(),
            status: resp.status,
            latency_us,
            dump_reason: dump_reason.to_string(),
            flight: (!dump_reason.is_empty()).then(flight::snapshot),
        });
    }
    resp
}

/// The one error body — `{"error": "<e>"}`, built by `serde` so any
/// byte a hostile request line smuggles into `e` is escaped — with
/// `Retry-After` on the overload-shaped statuses.
pub fn error_response(e: &ApiError) -> HttpResponse {
    let mut resp = HttpResponse::json(
        e.status(),
        json(&ErrorResponse {
            error: e.to_string(),
        }),
    );
    if let Some(secs) = e.retry_after_secs() {
        resp.headers
            .push(("Retry-After".to_string(), secs.to_string()));
    }
    resp
}

impl Service for AppState {
    fn scope(&self) -> &Scope {
        &self.scope
    }

    fn route(&self, req: &Request, ctx: &RequestCtx, trace: u64) -> HttpResponse {
        let resp = respond(self, req, ctx, trace);
        let hit_rate = self.cube.read().cache.hit_rate();
        flowcube_obs::gauge_set("serve.cache.hit_rate", hit_rate);
        resp
    }

    fn worker_crashed(&self) {
        self.health.record_worker_crash();
    }

    fn access_log(&self) -> Option<&AccessLog> {
        self.access.as_ref()
    }

    fn on_sighup(&self) {
        // Failures keep the old cube; the outcome lands in the
        // serve.reload.{ok,failed} counters either way.
        let _ = self.reload();
    }
}

fn respond(state: &AppState, req: &Request, ctx: &RequestCtx, trace: u64) -> HttpResponse {
    if req.method == "POST" && req.path == "/admin/reload" {
        return match state.reload() {
            Ok(resp) => HttpResponse::json(200, json(&resp)),
            Err(e) => error_response(&e),
        };
    }
    if req.method == "POST" && req.path == "/admin/ingest" {
        return match state.ingest(&req.body) {
            Ok(resp) => HttpResponse::json(200, json(&resp)),
            Err(e) => error_response(&e),
        };
    }
    if req.method == "POST" && req.path == "/admin/compact" {
        return match state.compact() {
            Ok(resp) => HttpResponse::json(200, json(&resp)),
            Err(e) => error_response(&e),
        };
    }
    if req.method != "GET" {
        return error_response(&ApiError::MethodNotAllowed(req.method.clone()));
    }

    let label = state.scope.endpoint(&req.path).label;
    let use_cache = cacheable(&req.path);
    let cache_key = req.cache_key();
    // The cube first: a body is cached with the cube it was rendered
    // from, so a swap that replaces the cube drops the body too.
    let served = state.cube();
    if use_cache {
        if let Some(hit) = served.cache.get(&cache_key) {
            flight::record(FlightKind::CacheHit, trace, label, hit.status, 0);
            return HttpResponse::json(hit.status, hit.body.clone());
        }
        flight::record(FlightKind::CacheMiss, trace, label, 0, 0);
    }

    // Fault injection: stall the request here (as a slow disk or a
    // pathological query would) so the deadline checks are testable.
    flowcube_testkit::fail_point_unit("serve.request");
    if let Err(e) = ctx.check_deadline() {
        flight::record(FlightKind::Deadline, trace, label, e.status(), 0);
        return error_response(&e);
    }

    let result = match req.path.as_str() {
        "/cell" => handle_cell(&served, req),
        "/rollup" => handle_rollup(&served, req),
        "/drilldown" => handle_drilldown(&served, req),
        "/slice" => handle_slice(&served, req),
        "/dice" => handle_dice(&served, req),
        "/paths/topk" => handle_topk(&served, req),
        "/paths/probability" => handle_probability(&served, req),
        "/exceptions" => handle_exceptions(&served, req),
        "/stats" => handle_stats(&served),
        "/healthz" => {
            let degraded = state.health.degraded();
            Ok(json(&HealthResponse {
                ok: !degraded,
                status: if degraded { "degraded" } else { "ok" },
                worker_crashes: state.health.worker_crashes(),
            }))
        }
        other => Err(ApiError::NotFound(format!("no route {other:?}"))),
    };
    // The handler may have hydrated cuboids from disk or walked a large
    // flowgraph; re-check so a blown deadline reports 503 rather than
    // pretending it answered in time.
    let result = result.and_then(|body| ctx.check_deadline().map(|()| body));

    match result {
        Ok(body) => {
            if use_cache {
                // Fault injection: hold a rendered body back from the
                // cache, so a swap can land between render and insert.
                flowcube_testkit::fail_point_unit("serve.cache.insert");
                served.cache.insert(
                    cache_key,
                    CachedResponse {
                        status: 200,
                        body: body.clone(),
                    },
                );
                flowcube_obs::gauge_set("serve.cache.entries", served.cache.len() as f64);
            }
            HttpResponse::json(200, body)
        }
        Err(e) => {
            if matches!(e, ApiError::Deadline) {
                flight::record(FlightKind::Deadline, trace, label, e.status(), 0);
            }
            error_response(&e)
        }
    }
}
