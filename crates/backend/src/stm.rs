//! The STM backend: the STMBench7 structure over transactional cells.
//!
//! Every mutable object lives in its own transactional variable — exactly
//! the paper's §5 setup ("we made each non-immutable object in the data
//! structure transactional"). The module is immutable and therefore not
//! transactional, as in the paper.
//!
//! Two representations are provided for the *large* objects:
//!
//! * [`Granularity::Monolithic`] — each index, and the manual, is one
//!   transactional object. Inserting one entry into the atomic-part index
//!   copies the whole index; changing one character of the manual copies
//!   the whole manual. This is the configuration whose cost the paper
//!   measures with ASTM.
//! * [`Granularity::Sharded`] — indexes are split into small per-bucket
//!   cells and the manual into chunks: the "group small objects / split
//!   the large ones" remedy sketched at the end of §5.

use std::cell::Cell as StdCell;

use stmbench7_obs::{EventKind, Layer, Recorder};

use stmbench7_data::access::PoolKind;
use stmbench7_data::btree::BTree;
use stmbench7_data::sharded::{shard_of_str, ShardedIndex};
use stmbench7_data::spec::AccessSpec;
use stmbench7_data::workspace::{
    AtomicGroup, BaseGroup, ComplexLevelGroup, CompositeGroup, DocGroup, Pools, SmState, Store,
    Workspace,
};
use stmbench7_data::{
    AtomicPart, AtomicPartId, BaseAssembly, BaseAssemblyId, ComplexAssembly, ComplexAssemblyId,
    CompositePart, CompositePartId, Document, DocumentId, Manual, Module, Sb7Tx, StructureParams,
    TxErr, TxR,
};
use stmbench7_stm::runtime::StmResult;
use stmbench7_stm::{Abort, AstmRuntime, StatsSnapshot, StmRuntime, Tl2Runtime, TxVal};

use crate::{Backend, TxOperation};

/// Representation of indexes and the manual (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Granularity {
    /// One transactional object per index / the whole manual (the paper's
    /// measured configuration).
    #[default]
    Monolithic,
    /// Bucketed indexes and a chunked manual (the paper's §5 remedy).
    Sharded,
}

impl Granularity {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Granularity::Monolithic => "monolithic",
            Granularity::Sharded => "sharded",
        }
    }
}

/// Bucket count of sharded STM indexes when `--shards` is unset: the
/// historical default, sized so that id-index buckets rarely collide.
const DEFAULT_STM_BUCKETS: usize = 256;
/// Build dates can drift one step below/above their initial range via
/// `AtomicPart::next_build_date`, so date buckets get a small margin.
const DATE_MARGIN: i32 = 4;

/// How many buckets `Granularity::Sharded` splits each index into: the
/// first-class `--shards` axis when set — an explicit `--shards 1`
/// really measures one bucket — else the historical default
/// (`index_shards == 0` means unset). Routing matches
/// [`stmbench7_data::sharded`] exactly, so STM variable granularity and
/// lock-shard granularity move together.
fn stm_buckets(params: &StructureParams) -> usize {
    if params.index_shards == 0 {
        DEFAULT_STM_BUCKETS
    } else {
        params.index_shards
    }
}

fn shard_of(raw: u32, buckets: usize) -> usize {
    raw as usize % buckets
}

/// Collapses a (possibly sharded) workspace index into one tree — the
/// monolithic transactional representation whose copy-on-write cost the
/// paper measures.
fn to_btree<K: Ord + Clone + stmbench7_data::ShardKey, V: Clone>(
    idx: &ShardedIndex<K, V>,
) -> BTree<K, V> {
    let mut t = BTree::new();
    idx.for_each(|k, v| {
        t.insert(k.clone(), v.clone());
    });
    t
}

const MISSING: TxErr = TxErr::Invariant("object not found");

fn stm<T>(r: StmResult<T>) -> TxR<T> {
    r.map_err(|Abort| TxErr::Abort)
}

// ---------------------------------------------------------------------------
// Index representations
// ---------------------------------------------------------------------------

/// Index of raw ids to a small copyable payload (`()` for presence
/// indexes, `u8` for the complex-assembly level index).
enum MapIndex<RT: StmRuntime, V: TxVal + Copy + Ord> {
    Mono(RT::Var<BTree<u32, V>>),
    Sharded(Vec<RT::Var<Vec<(u32, V)>>>),
}

impl<RT: StmRuntime, V: TxVal + Copy + Ord> MapIndex<RT, V> {
    fn build(
        rt: &RT,
        granularity: Granularity,
        buckets: usize,
        entries: &ShardedIndex<u32, V>,
    ) -> Self {
        match granularity {
            Granularity::Monolithic => MapIndex::Mono(rt.new_var(to_btree(entries))),
            Granularity::Sharded => {
                let mut split: Vec<Vec<(u32, V)>> = vec![Vec::new(); buckets];
                entries.for_each(|k, v| split[shard_of(*k, buckets)].push((*k, *v)));
                MapIndex::Sharded(split.into_iter().map(|b| rt.new_var(b)).collect())
            }
        }
    }

    fn get(&self, tx: &mut RT::Tx<'_>, raw: u32) -> StmResult<Option<V>> {
        match self {
            MapIndex::Mono(var) => Ok(RT::read(tx, var)?.get(&raw).copied()),
            MapIndex::Sharded(buckets) => {
                let bucket = RT::read(tx, &buckets[shard_of(raw, buckets.len())])?;
                Ok(bucket
                    .binary_search_by_key(&raw, |(k, _)| *k)
                    .ok()
                    .map(|i| bucket[i].1))
            }
        }
    }

    fn insert(&self, tx: &mut RT::Tx<'_>, raw: u32, value: V) -> StmResult<()> {
        match self {
            MapIndex::Mono(var) => RT::update(tx, var, |t| {
                t.insert(raw, value);
            }),
            MapIndex::Sharded(buckets) => {
                RT::update(tx, &buckets[shard_of(raw, buckets.len())], |b| {
                    if let Err(i) = b.binary_search_by_key(&raw, |(k, _)| *k) {
                        b.insert(i, (raw, value));
                    }
                })
            }
        }
    }

    fn remove(&self, tx: &mut RT::Tx<'_>, raw: u32) -> StmResult<()> {
        match self {
            MapIndex::Mono(var) => RT::update(tx, var, |t| {
                t.remove(&raw);
            }),
            MapIndex::Sharded(buckets) => {
                RT::update(tx, &buckets[shard_of(raw, buckets.len())], |b| {
                    if let Ok(i) = b.binary_search_by_key(&raw, |(k, _)| *k) {
                        b.remove(i);
                    }
                })
            }
        }
    }

    /// All keys in ascending order (index iteration, Q7/ST5).
    fn all_keys(&self, tx: &mut RT::Tx<'_>) -> StmResult<Vec<u32>> {
        match self {
            MapIndex::Mono(var) => {
                let t = RT::read(tx, var)?;
                let mut out = Vec::with_capacity(t.len());
                t.for_each(|k, _| out.push(*k));
                Ok(out)
            }
            MapIndex::Sharded(buckets) => {
                let mut out = Vec::new();
                for b in buckets {
                    out.extend(RT::read(tx, b)?.iter().map(|(k, _)| *k));
                }
                out.sort_unstable();
                Ok(out)
            }
        }
    }

    fn all_quiesced(&self, rt: &RT) -> Vec<(u32, V)> {
        match self {
            MapIndex::Mono(var) => {
                let t = rt.read_quiesced(var);
                let mut out = Vec::with_capacity(t.len());
                t.for_each(|k, v| out.push((*k, *v)));
                out
            }
            MapIndex::Sharded(buckets) => {
                let mut out = Vec::new();
                for b in buckets {
                    out.extend(rt.read_quiesced(b).iter().copied());
                }
                out.sort_unstable();
                out
            }
        }
    }
}

/// The atomic-part build-date index (index 2): duplicate dates allowed.
enum DateIndex<RT: StmRuntime> {
    Mono(RT::Var<BTree<(i32, u32), ()>>),
    /// One bucket per date in `[min - margin, max + margin]`, clamped at
    /// the edges; entries are `(date, id)` so clamping stays correct.
    Sharded {
        lo: i32,
        buckets: Vec<RT::Var<Vec<(i32, u32)>>>,
    },
}

impl<RT: StmRuntime> DateIndex<RT> {
    fn build(
        rt: &RT,
        granularity: Granularity,
        params: &StructureParams,
        entries: &ShardedIndex<(i32, u32), ()>,
    ) -> Self {
        match granularity {
            Granularity::Monolithic => DateIndex::Mono(rt.new_var(to_btree(entries))),
            Granularity::Sharded => {
                let lo = params.min_date - DATE_MARGIN;
                let hi = params.max_date + DATE_MARGIN;
                let n = (hi - lo + 1) as usize;
                let mut buckets: Vec<Vec<(i32, u32)>> = vec![Vec::new(); n];
                entries.for_each(|(date, id), _| {
                    let b = (date - lo).clamp(0, n as i32 - 1) as usize;
                    buckets[b].push((*date, *id));
                });
                DateIndex::Sharded {
                    lo,
                    buckets: buckets.into_iter().map(|b| rt.new_var(b)).collect(),
                }
            }
        }
    }

    fn bucket_of(lo: i32, len: usize, date: i32) -> usize {
        (date - lo).clamp(0, len as i32 - 1) as usize
    }

    fn insert(&self, tx: &mut RT::Tx<'_>, date: i32, raw: u32) -> StmResult<()> {
        match self {
            DateIndex::Mono(var) => RT::update(tx, var, |t| {
                t.insert((date, raw), ());
            }),
            DateIndex::Sharded { lo, buckets } => {
                let b = Self::bucket_of(*lo, buckets.len(), date);
                RT::update(tx, &buckets[b], |v| {
                    if let Err(i) = v.binary_search(&(date, raw)) {
                        v.insert(i, (date, raw));
                    }
                })
            }
        }
    }

    fn remove(&self, tx: &mut RT::Tx<'_>, date: i32, raw: u32) -> StmResult<()> {
        match self {
            DateIndex::Mono(var) => RT::update(tx, var, |t| {
                t.remove(&(date, raw));
            }),
            DateIndex::Sharded { lo, buckets } => {
                let b = Self::bucket_of(*lo, buckets.len(), date);
                RT::update(tx, &buckets[b], |v| {
                    if let Ok(i) = v.binary_search(&(date, raw)) {
                        v.remove(i);
                    }
                })
            }
        }
    }

    fn range(&self, tx: &mut RT::Tx<'_>, from: i32, to: i32) -> StmResult<Vec<u32>> {
        match self {
            DateIndex::Mono(var) => {
                let t = RT::read(tx, var)?;
                let mut out = Vec::new();
                t.for_range(&(from, 0), &(to, u32::MAX), |k, _| out.push(k.1));
                Ok(out)
            }
            DateIndex::Sharded { lo, buckets } => {
                let first = Self::bucket_of(*lo, buckets.len(), from);
                let last = Self::bucket_of(*lo, buckets.len(), to);
                let mut out = Vec::new();
                for b in &buckets[first..=last] {
                    out.extend(
                        RT::read(tx, b)?
                            .iter()
                            .filter(|(d, _)| (from..=to).contains(d))
                            .map(|(_, id)| *id),
                    );
                }
                Ok(out)
            }
        }
    }

    fn all_quiesced(&self, rt: &RT, shards: usize) -> ShardedIndex<(i32, u32), ()> {
        let mut tree = ShardedIndex::new(shards);
        match self {
            DateIndex::Mono(var) => {
                rt.read_quiesced(var).for_each(|k, _| {
                    tree.insert(*k, ());
                });
            }
            DateIndex::Sharded { buckets, .. } => {
                for b in buckets {
                    for (d, id) in rt.read_quiesced(b).iter() {
                        tree.insert((*d, *id), ());
                    }
                }
            }
        }
        tree
    }
}

/// The document-title index (index 4).
enum TitleIndex<RT: StmRuntime> {
    Mono(RT::Var<BTree<String, u32>>),
    Sharded(Vec<RT::Var<Vec<(String, u32)>>>),
}

impl<RT: StmRuntime> TitleIndex<RT> {
    fn build(
        rt: &RT,
        granularity: Granularity,
        buckets: usize,
        entries: &ShardedIndex<String, u32>,
    ) -> Self {
        match granularity {
            Granularity::Monolithic => TitleIndex::Mono(rt.new_var(to_btree(entries))),
            Granularity::Sharded => {
                let mut split: Vec<Vec<(String, u32)>> = vec![Vec::new(); buckets];
                entries.for_each(|k, v| split[shard_of_str(k, buckets)].push((k.clone(), *v)));
                for b in &mut split {
                    b.sort();
                }
                TitleIndex::Sharded(split.into_iter().map(|b| rt.new_var(b)).collect())
            }
        }
    }

    fn get(&self, tx: &mut RT::Tx<'_>, title: &str) -> StmResult<Option<u32>> {
        match self {
            TitleIndex::Mono(var) => Ok(RT::read(tx, var)?.get(&title.to_string()).copied()),
            TitleIndex::Sharded(buckets) => {
                let bucket = RT::read(tx, &buckets[shard_of_str(title, buckets.len())])?;
                Ok(bucket
                    .binary_search_by(|(t, _)| t.as_str().cmp(title))
                    .ok()
                    .map(|i| bucket[i].1))
            }
        }
    }

    fn insert(&self, tx: &mut RT::Tx<'_>, title: String, raw: u32) -> StmResult<()> {
        match self {
            TitleIndex::Mono(var) => RT::update(tx, var, |t| {
                t.insert(title, raw);
            }),
            TitleIndex::Sharded(buckets) => {
                let shard = shard_of_str(&title, buckets.len());
                RT::update(tx, &buckets[shard], |b| {
                    match b.binary_search_by(|(t, _)| t.cmp(&title)) {
                        Ok(i) => b[i].1 = raw,
                        Err(i) => b.insert(i, (title, raw)),
                    }
                })
            }
        }
    }

    fn remove(&self, tx: &mut RT::Tx<'_>, title: &str) -> StmResult<()> {
        match self {
            TitleIndex::Mono(var) => RT::update(tx, var, |t| {
                t.remove(&title.to_string());
            }),
            TitleIndex::Sharded(buckets) => {
                RT::update(tx, &buckets[shard_of_str(title, buckets.len())], |b| {
                    if let Ok(i) = b.binary_search_by(|(t, _)| t.as_str().cmp(title)) {
                        b.remove(i);
                    }
                })
            }
        }
    }

    fn all_quiesced(&self, rt: &RT, shards: usize) -> ShardedIndex<String, u32> {
        let mut tree = ShardedIndex::new(shards);
        match self {
            TitleIndex::Mono(var) => {
                rt.read_quiesced(var).for_each(|k, v| {
                    tree.insert(k.clone(), *v);
                });
            }
            TitleIndex::Sharded(buckets) => {
                for b in buckets {
                    for (t, id) in rt.read_quiesced(b).iter() {
                        tree.insert(t.clone(), *id);
                    }
                }
            }
        }
        tree
    }
}

/// The manual: whole object, or chunked (§5 remedy).
enum ManualRep<RT: StmRuntime> {
    Mono(RT::Var<Manual>),
    Chunked {
        title: String,
        chunks: Vec<RT::Var<String>>,
    },
}

// ---------------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------------

/// Names STM runtimes for reports.
pub trait RtName {
    /// Short name ("astm", "tl2", "norec").
    const NAME: &'static str;
    /// Full display name including granularity and any mode the runtime
    /// is configured with.
    fn backend_name(&self, granularity: Granularity) -> &'static str;
}

impl RtName for AstmRuntime {
    const NAME: &'static str = "astm";
    fn backend_name(&self, granularity: Granularity) -> &'static str {
        match (granularity, self.config().visible_reads) {
            (Granularity::Monolithic, false) => "astm",
            (Granularity::Sharded, false) => "astm-sharded",
            (Granularity::Monolithic, true) => "astm-visible",
            (Granularity::Sharded, true) => "astm-visible-sharded",
        }
    }
}

impl RtName for Tl2Runtime {
    const NAME: &'static str = "tl2";
    fn backend_name(&self, granularity: Granularity) -> &'static str {
        match granularity {
            Granularity::Monolithic => "tl2",
            Granularity::Sharded => "tl2-sharded",
        }
    }
}

impl RtName for stmbench7_stm::NorecRuntime {
    const NAME: &'static str = "norec";
    fn backend_name(&self, granularity: Granularity) -> &'static str {
        match granularity {
            Granularity::Monolithic => "norec",
            Granularity::Sharded => "norec-sharded",
        }
    }
}

type Slot<T> = Option<T>;

/// The STMBench7 structure held in transactional variables.
pub struct StmBackend<RT: StmRuntime + RtName> {
    rt: RT,
    params: StructureParams,
    module: Module,
    granularity: Granularity,
    manual: ManualRep<RT>,
    pools: RT::Var<Pools>,
    atomics: Vec<RT::Var<Slot<AtomicPart>>>,
    composites: Vec<RT::Var<Slot<CompositePart>>>,
    bases: Vec<RT::Var<Slot<BaseAssembly>>>,
    complexes: Vec<RT::Var<Slot<ComplexAssembly>>>,
    documents: Vec<RT::Var<Slot<Document>>>,
    atomic_ids: MapIndex<RT, ()>,
    atomic_dates: DateIndex<RT>,
    composite_ids: MapIndex<RT, ()>,
    doc_titles: TitleIndex<RT>,
    base_ids: MapIndex<RT, ()>,
    complex_levels: MapIndex<RT, u8>,
    recorder: Recorder,
}

fn store_to_vars<RT: StmRuntime, T: TxVal>(
    rt: &RT,
    store: &Store<T>,
    max: u32,
) -> Vec<RT::Var<Slot<T>>> {
    let mut vars = Vec::with_capacity(max as usize + 1);
    for raw in 0..=max {
        vars.push(rt.new_var(store.get(raw).cloned()));
    }
    vars
}

impl<RT: StmRuntime + RtName> StmBackend<RT> {
    /// Converts a built plain workspace into transactional form.
    ///
    /// The conversion bypasses transactions (it happens before any
    /// concurrency): populating 100 000 objects inside one ASTM
    /// transaction would itself exhibit the O(k²) pathology.
    pub fn from_workspace(ws: &Workspace, rt: RT, granularity: Granularity) -> Self {
        let params = ws.params.clone();
        let manual = match granularity {
            Granularity::Monolithic => ManualRep::Mono(rt.new_var(ws.manual.clone())),
            Granularity::Sharded => {
                let text = ws.manual.text.as_str();
                let n = params.manual_chunks.max(1);
                let chunk_len = text.len().div_ceil(n).max(1);
                let chunks = text
                    .as_bytes()
                    .chunks(chunk_len)
                    .map(|c| {
                        rt.new_var(String::from_utf8(c.to_vec()).expect("manual text is ASCII"))
                    })
                    .collect();
                ManualRep::Chunked {
                    title: ws.manual.title.clone(),
                    chunks,
                }
            }
        };
        // A flat complex store across levels (the level index resolves).
        let mut complex_store: Store<ComplexAssembly> = Store::new(params.max_complexes());
        for g in &ws.complexes {
            for (raw, ca) in g.store.iter() {
                complex_store.insert(raw, ca.clone());
            }
        }
        StmBackend {
            params: params.clone(),
            module: ws.module.clone(),
            granularity,
            manual,
            pools: rt.new_var(ws.sm.pools.clone()),
            atomics: store_to_vars(&rt, &ws.atomics.store, params.max_atomics()),
            composites: store_to_vars(&rt, &ws.composites.store, params.max_comps()),
            bases: store_to_vars(&rt, &ws.bases.store, params.max_bases()),
            complexes: store_to_vars(&rt, &complex_store, params.max_complexes()),
            documents: store_to_vars(&rt, &ws.documents.store, params.max_comps()),
            atomic_ids: MapIndex::build(&rt, granularity, stm_buckets(&params), &ws.atomics.by_id),
            atomic_dates: DateIndex::build(&rt, granularity, &params, &ws.atomics.by_date),
            composite_ids: MapIndex::build(
                &rt,
                granularity,
                stm_buckets(&params),
                &ws.composites.by_id,
            ),
            doc_titles: TitleIndex::build(
                &rt,
                granularity,
                stm_buckets(&params),
                &ws.documents.by_title,
            ),
            base_ids: MapIndex::build(&rt, granularity, stm_buckets(&params), &ws.bases.by_id),
            complex_levels: MapIndex::build(
                &rt,
                granularity,
                stm_buckets(&params),
                &ws.sm.complex_index,
            ),
            rt,
            recorder: Recorder::default(),
        }
    }

    /// Attaches a trace recorder (builder style, before sharing).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The underlying runtime (for stats and diagnostics).
    pub fn runtime(&self) -> &RT {
        &self.rt
    }

    /// The configured granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }
}

impl<RT: StmRuntime + RtName> Backend for StmBackend<RT> {
    fn execute<R: Send, O: TxOperation<R> + Send>(&self, spec: &AccessSpec, op: &mut O) -> R {
        // Opacity should make `Invariant` unreachable; tolerate a bounded
        // number as conflict artifacts, then treat it as a benchmark bug.
        let strikes = StdCell::new(0u32);
        let attempts = StdCell::new(0u64);
        let body = |tx: &mut RT::Tx<'_>| {
            let mut stx = StmTx { ws: self, tx };
            // Every re-entry of the body is an aborted-and-retried
            // attempt; trace it so abort storms are visible per op.
            attempts.set(attempts.get() + 1);
            if attempts.get() > 1 {
                self.recorder.instant(
                    Layer::Stm,
                    EventKind::StmRetry,
                    self.name(),
                    attempts.get() - 1,
                );
            }
            op.begin_attempt();
            match op.run(&mut stx) {
                Ok(r) => Ok(r),
                Err(TxErr::Abort) => Err(Abort),
                Err(TxErr::Invariant(msg)) => {
                    strikes.set(strikes.get() + 1);
                    assert!(
                        strikes.get() < 1000,
                        "persistent invariant violation under STM: {msg}"
                    );
                    Err(Abort)
                }
            }
        };
        if spec.any_write() {
            self.rt.atomic(body)
        } else {
            // The spec promises a read-only operation; runtimes with a
            // read-only mode (TL2) skip read-set bookkeeping entirely.
            self.rt.atomic_read_only(body)
        }
    }

    fn name(&self) -> &'static str {
        self.rt.backend_name(self.granularity)
    }

    fn export(&self) -> Workspace {
        let rt = &self.rt;
        let mut ws = Workspace::new(self.params.clone());
        ws.module = self.module.clone();
        ws.manual = match &self.manual {
            ManualRep::Mono(var) => (*rt.read_quiesced(var)).clone(),
            ManualRep::Chunked { title, chunks } => {
                let mut text = String::new();
                for c in chunks {
                    text.push_str(&rt.read_quiesced(c));
                }
                Manual {
                    title: title.clone(),
                    text,
                }
            }
        };
        let shards = self.params.effective_shards();
        ws.sm = SmState {
            pools: (*rt.read_quiesced(&self.pools)).clone(),
            complex_index: {
                let mut t = ShardedIndex::new(shards);
                for (k, v) in self.complex_levels.all_quiesced(rt) {
                    t.insert(k, v);
                }
                t
            },
        };
        ws.bases = BaseGroup {
            store: vars_to_store(rt, &self.bases),
            by_id: presence_index(self.base_ids.all_quiesced(rt), shards),
        };
        let complex_store: Store<ComplexAssembly> = vars_to_store(rt, &self.complexes);
        let levels = usize::from(self.params.assembly_levels);
        let mut per_level: Vec<Store<ComplexAssembly>> = (2..=levels)
            .map(|_| Store::new(self.params.max_complexes()))
            .collect();
        for (raw, ca) in complex_store.iter() {
            per_level[usize::from(ca.level) - 2].insert(raw, ca.clone());
        }
        ws.complexes = per_level
            .into_iter()
            .map(|store| ComplexLevelGroup { store })
            .collect();
        ws.composites = CompositeGroup {
            store: vars_to_store(rt, &self.composites),
            by_id: presence_index(self.composite_ids.all_quiesced(rt), shards),
        };
        ws.atomics = AtomicGroup {
            store: vars_to_store(rt, &self.atomics),
            by_id: presence_index(self.atomic_ids.all_quiesced(rt), shards),
            by_date: self.atomic_dates.all_quiesced(rt, shards),
        };
        ws.documents = DocGroup {
            store: vars_to_store(rt, &self.documents),
            by_title: self.doc_titles.all_quiesced(rt, shards),
        };
        ws
    }

    fn stm_stats(&self) -> Option<StatsSnapshot> {
        Some(self.rt.snapshot())
    }
}

fn vars_to_store<RT: StmRuntime, T: TxVal>(rt: &RT, vars: &[RT::Var<Slot<T>>]) -> Store<T> {
    let mut store = Store::new(vars.len() as u32 - 1);
    for (raw, var) in vars.iter().enumerate() {
        if let Some(v) = rt.read_quiesced(var).as_ref() {
            store.insert(raw as u32, v.clone());
        }
    }
    store
}

fn presence_index(keys: Vec<(u32, ())>, shards: usize) -> ShardedIndex<u32, ()> {
    let mut t = ShardedIndex::new(shards);
    for (k, ()) in keys {
        t.insert(k, ());
    }
    t
}

// ---------------------------------------------------------------------------
// The transactional Sb7Tx adapter
// ---------------------------------------------------------------------------

/// One STM transaction attempt viewed through the `Sb7Tx` interface.
pub struct StmTx<'a, 'tx, RT: StmRuntime + RtName> {
    ws: &'a StmBackend<RT>,
    tx: &'a mut RT::Tx<'tx>,
}

impl<RT: StmRuntime + RtName> StmTx<'_, '_, RT> {
    fn slot<T: TxVal, R>(
        &mut self,
        vars: &[RT::Var<Slot<T>>],
        raw: u32,
        f: impl FnOnce(&T) -> R,
    ) -> TxR<R> {
        let var = vars.get(raw as usize).ok_or(MISSING)?;
        let value = stm(RT::read(self.tx, var))?;
        (*value).as_ref().map(f).ok_or(MISSING)
    }

    fn slot_mut<T: TxVal, R>(
        &mut self,
        vars: &[RT::Var<Slot<T>>],
        raw: u32,
        f: impl FnOnce(&mut T) -> R,
    ) -> TxR<R> {
        let var = vars.get(raw as usize).ok_or(MISSING)?;
        let mut out = None;
        stm(RT::update(self.tx, var, |slot| {
            if let Some(v) = slot.as_mut() {
                out = Some(f(v));
            }
        }))?;
        out.ok_or(MISSING)
    }

    fn slot_insert<T: TxVal>(&mut self, vars: &[RT::Var<Slot<T>>], raw: u32, v: T) -> TxR<()> {
        let var = vars.get(raw as usize).ok_or(MISSING)?;
        // No occupancy assertion here: a doomed (killed-but-unnoticed)
        // transaction may legitimately observe an occupied slot through a
        // stale id; its tentative write can never commit, so overwriting
        // the clone is harmless.
        stm(RT::update(self.tx, var, |slot| {
            *slot = Some(v);
        }))
    }

    fn slot_take<T: TxVal>(&mut self, vars: &[RT::Var<Slot<T>>], raw: u32) -> TxR<T> {
        let var = vars.get(raw as usize).ok_or(MISSING)?;
        let mut out = None;
        stm(RT::update(self.tx, var, |slot| out = slot.take()))?;
        out.ok_or(MISSING)
    }

    fn alloc(&mut self, kind: PoolKind) -> TxR<Option<u32>> {
        let mut out = None;
        stm(RT::update(self.tx, &self.ws.pools, |pools| {
            out = pool_of_mut(pools, kind).alloc();
        }))?;
        Ok(out)
    }

    fn free(&mut self, kind: PoolKind, raw: u32) -> TxR<()> {
        stm(RT::update(self.tx, &self.ws.pools, |pools| {
            // A doomed transaction may free a stale id; ignore it — the
            // abort discards this pool clone anyway.
            let _ = pool_of_mut(pools, kind).free(raw);
        }))
    }
}

fn pool_of_mut(pools: &mut Pools, kind: PoolKind) -> &mut stmbench7_data::IdPool {
    match kind {
        PoolKind::Atomic => &mut pools.atomic,
        PoolKind::Composite => &mut pools.composite,
        PoolKind::Document => &mut pools.document,
        PoolKind::Base => &mut pools.base,
        PoolKind::Complex => &mut pools.complex,
    }
}

fn pool_of(pools: &Pools, kind: PoolKind) -> &stmbench7_data::IdPool {
    match kind {
        PoolKind::Atomic => &pools.atomic,
        PoolKind::Composite => &pools.composite,
        PoolKind::Document => &pools.document,
        PoolKind::Base => &pools.base,
        PoolKind::Complex => &pools.complex,
    }
}

impl<RT: StmRuntime + RtName> Sb7Tx for StmTx<'_, '_, RT> {
    fn module<R>(&mut self, f: impl FnOnce(&Module) -> R) -> TxR<R> {
        // The module is immutable and non-transactional, as in the paper.
        Ok(f(&self.ws.module))
    }

    fn manual_text_len(&mut self) -> TxR<usize> {
        match &self.ws.manual {
            ManualRep::Mono(var) => Ok(stm(RT::read(self.tx, var))?.text.len()),
            ManualRep::Chunked { chunks, .. } => {
                let mut total = 0;
                for c in chunks {
                    total += stm(RT::read(self.tx, c))?.len();
                }
                Ok(total)
            }
        }
    }

    fn manual_count_char(&mut self, ch: char) -> TxR<usize> {
        match &self.ws.manual {
            ManualRep::Mono(var) => Ok(stmbench7_data::text::count_char(
                &stm(RT::read(self.tx, var))?.text,
                ch,
            )),
            ManualRep::Chunked { chunks, .. } => {
                let mut total = 0;
                for c in chunks {
                    total += stmbench7_data::text::count_char(&stm(RT::read(self.tx, c))?, ch);
                }
                Ok(total)
            }
        }
    }

    fn manual_first_last_equal(&mut self) -> TxR<bool> {
        match &self.ws.manual {
            ManualRep::Mono(var) => Ok(stmbench7_data::text::first_last_equal(
                &stm(RT::read(self.tx, var))?.text,
            )),
            ManualRep::Chunked { chunks, .. } => {
                let first = stm(RT::read(self.tx, &chunks[0]))?.chars().next();
                let last = stm(RT::read(self.tx, &chunks[chunks.len() - 1]))?
                    .chars()
                    .next_back();
                match (first, last) {
                    (Some(a), Some(b)) => Ok(a == b),
                    _ => Ok(false),
                }
            }
        }
    }

    fn manual_swap_case(&mut self) -> TxR<usize> {
        match &self.ws.manual {
            ManualRep::Mono(var) => {
                let mut changed = 0;
                stm(RT::update(self.tx, var, |m| {
                    changed = stmbench7_data::text::swap_manual_case(&mut m.text);
                }))?;
                Ok(changed)
            }
            ManualRep::Chunked { chunks, .. } => {
                // Decide the direction from the whole manual, as the
                // monolithic kernel does: an 'I' in any chunk wins over
                // 'i'. Then swap chunk by chunk, touching only chunks
                // that need it.
                let (mut upper, mut lower) = (false, false);
                for c in chunks {
                    let text = stm(RT::read(self.tx, c))?;
                    if text.contains('I') {
                        upper = true;
                        break;
                    }
                    lower |= text.contains('i');
                }
                let (from, to) = match (upper, lower) {
                    (true, _) => (b'I', b'i'),
                    (false, true) => (b'i', b'I'),
                    (false, false) => return Ok(0),
                };
                let mut changed = 0;
                for c in chunks {
                    if !stm(RT::read(self.tx, c))?.as_bytes().contains(&from) {
                        continue;
                    }
                    stm(RT::update(self.tx, c, |text| {
                        changed += stmbench7_data::text::replace_byte(text, from, to);
                    }))?;
                }
                Ok(changed)
            }
        }
    }

    fn set_design_root(&mut self, _root: ComplexAssemblyId) -> TxR<()> {
        Err(TxErr::Invariant(
            "the module is immutable once a backend is constructed",
        ))
    }

    fn atomic<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        let vars = &self.ws.atomics;
        self.slot(vars, id.raw(), f)
    }

    fn composite<R>(&mut self, id: CompositePartId, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        self.slot(&self.ws.composites, id.raw(), f)
    }

    fn base<R>(&mut self, id: BaseAssemblyId, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        self.slot(&self.ws.bases, id.raw(), f)
    }

    fn complex<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&ComplexAssembly) -> R,
    ) -> TxR<R> {
        self.slot(&self.ws.complexes, id.raw(), f)
    }

    fn document<R>(&mut self, id: DocumentId, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        self.slot(&self.ws.documents, id.raw(), f)
    }

    fn atomic_mut<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&mut AtomicPart) -> R) -> TxR<R> {
        self.slot_mut(&self.ws.atomics, id.raw(), f)
    }

    fn composite_mut<R>(
        &mut self,
        id: CompositePartId,
        f: impl FnOnce(&mut CompositePart) -> R,
    ) -> TxR<R> {
        self.slot_mut(&self.ws.composites, id.raw(), f)
    }

    fn base_mut<R>(
        &mut self,
        id: BaseAssemblyId,
        f: impl FnOnce(&mut BaseAssembly) -> R,
    ) -> TxR<R> {
        self.slot_mut(&self.ws.bases, id.raw(), f)
    }

    fn complex_mut<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&mut ComplexAssembly) -> R,
    ) -> TxR<R> {
        self.slot_mut(&self.ws.complexes, id.raw(), f)
    }

    fn document_mut<R>(&mut self, id: DocumentId, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        self.slot_mut(&self.ws.documents, id.raw(), f)
    }

    fn set_atomic_build_date(&mut self, id: AtomicPartId, date: i32) -> TxR<()> {
        let old = self.slot_mut(&self.ws.atomics, id.raw(), |p| {
            let old = p.build_date;
            p.build_date = date;
            old
        })?;
        stm(self.ws.atomic_dates.remove(self.tx, old, id.raw()))?;
        stm(self.ws.atomic_dates.insert(self.tx, date, id.raw()))?;
        Ok(())
    }

    fn lookup_atomic(&mut self, raw: u32) -> TxR<Option<AtomicPartId>> {
        Ok(stm(self.ws.atomic_ids.get(self.tx, raw))?.map(|()| AtomicPartId(raw)))
    }

    fn lookup_composite(&mut self, raw: u32) -> TxR<Option<CompositePartId>> {
        Ok(stm(self.ws.composite_ids.get(self.tx, raw))?.map(|()| CompositePartId(raw)))
    }

    fn lookup_base(&mut self, raw: u32) -> TxR<Option<BaseAssemblyId>> {
        Ok(stm(self.ws.base_ids.get(self.tx, raw))?.map(|()| BaseAssemblyId(raw)))
    }

    fn lookup_complex(&mut self, raw: u32) -> TxR<Option<ComplexAssemblyId>> {
        Ok(stm(self.ws.complex_levels.get(self.tx, raw))?.map(|_| ComplexAssemblyId(raw)))
    }

    fn lookup_document(&mut self, title: &str) -> TxR<Option<DocumentId>> {
        Ok(stm(self.ws.doc_titles.get(self.tx, title))?.map(DocumentId))
    }

    fn atomics_in_date_range(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        Ok(stm(self.ws.atomic_dates.range(self.tx, lo, hi))?
            .into_iter()
            .map(AtomicPartId)
            .collect())
    }

    fn all_atomic_ids(&mut self) -> TxR<Vec<AtomicPartId>> {
        Ok(stm(self.ws.atomic_ids.all_keys(self.tx))?
            .into_iter()
            .map(AtomicPartId)
            .collect())
    }

    fn all_base_ids(&mut self) -> TxR<Vec<BaseAssemblyId>> {
        Ok(stm(self.ws.base_ids.all_keys(self.tx))?
            .into_iter()
            .map(BaseAssemblyId)
            .collect())
    }

    fn pool_capacity(&mut self, kind: PoolKind) -> TxR<usize> {
        let pools = stm(RT::read(self.tx, &self.ws.pools))?;
        let pool = pool_of(&pools, kind);
        Ok(pool.capacity() as usize - pool.live())
    }

    fn create_atomic(
        &mut self,
        make: impl FnOnce(AtomicPartId) -> AtomicPart,
    ) -> TxR<Option<AtomicPartId>> {
        let Some(raw) = self.alloc(PoolKind::Atomic)? else {
            return Ok(None);
        };
        let id = AtomicPartId(raw);
        let part = make(id);
        let date = part.build_date;
        self.slot_insert(&self.ws.atomics, raw, part)?;
        stm(self.ws.atomic_ids.insert(self.tx, raw, ()))?;
        stm(self.ws.atomic_dates.insert(self.tx, date, raw))?;
        Ok(Some(id))
    }

    fn create_composite(
        &mut self,
        make: impl FnOnce(CompositePartId) -> CompositePart,
    ) -> TxR<Option<CompositePartId>> {
        let Some(raw) = self.alloc(PoolKind::Composite)? else {
            return Ok(None);
        };
        let id = CompositePartId(raw);
        self.slot_insert(&self.ws.composites, raw, make(id))?;
        stm(self.ws.composite_ids.insert(self.tx, raw, ()))?;
        Ok(Some(id))
    }

    fn create_document(
        &mut self,
        make: impl FnOnce(DocumentId) -> Document,
    ) -> TxR<Option<DocumentId>> {
        let Some(raw) = self.alloc(PoolKind::Document)? else {
            return Ok(None);
        };
        let id = DocumentId(raw);
        let doc = make(id);
        let title = doc.title.clone();
        self.slot_insert(&self.ws.documents, raw, doc)?;
        stm(self.ws.doc_titles.insert(self.tx, title, raw))?;
        Ok(Some(id))
    }

    fn create_base(
        &mut self,
        make: impl FnOnce(BaseAssemblyId) -> BaseAssembly,
    ) -> TxR<Option<BaseAssemblyId>> {
        let Some(raw) = self.alloc(PoolKind::Base)? else {
            return Ok(None);
        };
        let id = BaseAssemblyId(raw);
        self.slot_insert(&self.ws.bases, raw, make(id))?;
        stm(self.ws.base_ids.insert(self.tx, raw, ()))?;
        Ok(Some(id))
    }

    fn create_complex(
        &mut self,
        level: u8,
        make: impl FnOnce(ComplexAssemblyId) -> ComplexAssembly,
    ) -> TxR<Option<ComplexAssemblyId>> {
        let Some(raw) = self.alloc(PoolKind::Complex)? else {
            return Ok(None);
        };
        let id = ComplexAssemblyId(raw);
        self.slot_insert(&self.ws.complexes, raw, make(id))?;
        stm(self.ws.complex_levels.insert(self.tx, raw, level))?;
        Ok(Some(id))
    }

    fn delete_atomic(&mut self, id: AtomicPartId) -> TxR<AtomicPart> {
        let part = self.slot_take(&self.ws.atomics, id.raw())?;
        stm(self.ws.atomic_ids.remove(self.tx, id.raw()))?;
        stm(self
            .ws
            .atomic_dates
            .remove(self.tx, part.build_date, id.raw()))?;
        self.free(PoolKind::Atomic, id.raw())?;
        Ok(part)
    }

    fn delete_composite(&mut self, id: CompositePartId) -> TxR<CompositePart> {
        let comp = self.slot_take(&self.ws.composites, id.raw())?;
        stm(self.ws.composite_ids.remove(self.tx, id.raw()))?;
        self.free(PoolKind::Composite, id.raw())?;
        Ok(comp)
    }

    fn delete_document(&mut self, id: DocumentId) -> TxR<Document> {
        let doc = self.slot_take(&self.ws.documents, id.raw())?;
        stm(self.ws.doc_titles.remove(self.tx, &doc.title))?;
        self.free(PoolKind::Document, id.raw())?;
        Ok(doc)
    }

    fn delete_base(&mut self, id: BaseAssemblyId) -> TxR<BaseAssembly> {
        let base = self.slot_take(&self.ws.bases, id.raw())?;
        stm(self.ws.base_ids.remove(self.tx, id.raw()))?;
        self.free(PoolKind::Base, id.raw())?;
        Ok(base)
    }

    fn delete_complex(&mut self, id: ComplexAssemblyId) -> TxR<ComplexAssembly> {
        let ca = self.slot_take(&self.ws.complexes, id.raw())?;
        stm(self.ws.complex_levels.remove(self.tx, id.raw()))?;
        self.free(PoolKind::Complex, id.raw())?;
        Ok(ca)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_data::{validate, Mode};

    struct CountI;
    impl TxOperation<usize> for CountI {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<usize> {
            tx.manual_count_char('I')
        }
    }

    struct SwapManual;
    impl TxOperation<usize> for SwapManual {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<usize> {
            tx.manual_swap_case()
        }
    }

    struct BumpDate(u32);
    impl TxOperation<bool> for BumpDate {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<bool> {
            let Some(id) = tx.lookup_atomic(self.0)? else {
                return Ok(false);
            };
            let date = tx.atomic(id, |p| p.build_date)?;
            tx.set_atomic_build_date(id, AtomicPart::next_build_date(date))?;
            Ok(true)
        }
    }

    fn spec() -> AccessSpec {
        AccessSpec::new().regular()
    }

    /// Writing operations must declare a write so the backend does not
    /// route them through the read-only fast path.
    fn write_spec() -> AccessSpec {
        AccessSpec::new()
            .regular()
            .manual(Mode::Write)
            .atomics(Mode::Write)
    }

    fn check_backend<RT: StmRuntime + RtName>(rt: RT, granularity: Granularity) {
        let ws = Workspace::build(StructureParams::tiny(), 21);
        let expect_i = stmbench7_data::text::count_char(&ws.manual.text, 'I');
        let backend = StmBackend::from_workspace(&ws, rt, granularity);

        assert_eq!(backend.execute(&spec(), &mut CountI), expect_i);
        let swapped = backend.execute(&write_spec(), &mut SwapManual);
        assert_eq!(swapped, expect_i);
        assert_eq!(backend.execute(&spec(), &mut CountI), 0);
        // Swap back for the validator's peace of mind.
        backend.execute(&write_spec(), &mut SwapManual);

        assert!(backend.execute(&write_spec(), &mut BumpDate(1)));
        assert!(!backend.execute(&write_spec(), &mut BumpDate(9_999_999)));

        let out = backend.export();
        validate(&out).unwrap();
        let stats = backend.stm_stats().unwrap();
        assert!(stats.commits >= 4);
    }

    #[test]
    fn astm_monolithic_roundtrip() {
        check_backend(AstmRuntime::default(), Granularity::Monolithic);
    }

    #[test]
    fn astm_sharded_roundtrip() {
        check_backend(AstmRuntime::default(), Granularity::Sharded);
    }

    #[test]
    fn tl2_monolithic_roundtrip() {
        check_backend(Tl2Runtime::default(), Granularity::Monolithic);
    }

    #[test]
    fn tl2_sharded_roundtrip() {
        check_backend(Tl2Runtime::default(), Granularity::Sharded);
    }

    /// A manual whose first chunk holds only `'i'` and whose later chunks
    /// hold `'I'`: the chunked swap must still pick `'I'` → `'i'`, like
    /// the monolithic kernel and the lock backends.
    #[test]
    fn chunked_swap_direction_matches_sequential() {
        use crate::{AnyBackend, BackendChoice};
        let mut ws = Workspace::build(StructureParams::tiny(), 21);
        let len = ws.manual.text.len();
        let mut text = "i am lower. ".repeat(len)[..len / 2].to_string();
        text.push_str(&"I am UPPER. ".repeat(len)[..len - len / 2]);
        ws.manual.text = text;
        let chunk_len = len.div_ceil(ws.params.manual_chunks);
        assert!(!ws.manual.text[..chunk_len].contains('I'));

        let run = |name: &str| {
            let backend = AnyBackend::build(BackendChoice::parse(name).unwrap(), ws.clone());
            let first = backend.execute(&write_spec(), &mut SwapManual);
            let second = backend.execute(&write_spec(), &mut SwapManual);
            (first, second, backend.export().manual.text)
        };
        // The first swap turns every 'I' into 'i'; the second turns every
        // 'i' (now all of them) back into 'I'.
        let count = |c| stmbench7_data::text::count_char(&ws.manual.text, c);
        let oracle = run("sequential");
        assert_eq!((oracle.0, oracle.1), (count('I'), count('I') + count('i')));
        for name in [
            "astm-sharded",
            "tl2-sharded",
            "norec-sharded",
            "astm",
            "tl2",
            "norec",
        ] {
            assert!(run(name) == oracle, "{name} disagrees with sequential");
        }
    }

    #[test]
    fn concurrent_date_bumps_keep_indexes_coherent() {
        let ws = Workspace::build(StructureParams::tiny(), 23);
        let backend = std::sync::Arc::new(StmBackend::from_workspace(
            &ws,
            Tl2Runtime::default(),
            Granularity::Sharded,
        ));
        let n = ws.params.initial_atomics() as u32;
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let b = std::sync::Arc::clone(&backend);
                s.spawn(move || {
                    for i in 0..100 {
                        let raw = (t * 31 + i) % n + 1;
                        b.execute(&write_spec(), &mut BumpDate(raw));
                    }
                });
            }
        });
        validate(&backend.export()).unwrap();
    }
}
