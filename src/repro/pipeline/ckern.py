"""Compiled fast path for the timing core (build + marshal + run).

``_ckern.c`` is a statement-for-statement C port of the hot loop in
:mod:`repro.pipeline.core` for runs without a tracer (every ``repro
bench`` point and every memoized timing run). Every timing run enters
it through :func:`run_batch`; a single point is a batch of one.
Observed runs whose collectors support the packed event tap
(:class:`~repro.minigraph.slack.SlackCollector`,
:class:`~repro.obs.attribution.AttributionCollector`) also run here: the
kernel appends fixed-width events into a preallocated ``array('q')``
buffer and the collectors reconstruct their profiles post-hoc,
bit-identical to the Python observer path. Slack-Dynamic runs
(:class:`~repro.minigraph.dynamic.SlackDynamicPolicy`, no observer) run
here too: a batch descriptor carries the policy's parameters and
per-site state in and out as int64 arrays. This module

* compiles it on demand with the system C compiler (no third-party
  dependencies; the shared object is cached under the user cache dir,
  keyed by a hash of the C source, so rebuilds only happen when the
  source changes; ``REPRO_CKERN_SANITIZE=1`` builds and loads an
  AddressSanitizer/UBSan object, cached under its own name),
* flattens the trace's mini-graph handle metadata into int64 columns the
  kernel can walk (the scalar columns come straight from
  :class:`~repro.isa.interp.PackedTrace` buffers, zero-copy) — or, for
  folded traces, has ``repro_fold`` build the whole arena from the
  singleton columns and a per-site plan table (:func:`fold`),
* copies the kernel's counters back into the core's ``RunStats`` /
  ``ActivityCounters`` / hierarchy objects so callers cannot tell which
  path ran,
* executes programs and gathers their trace columns for
  :func:`repro.isa.interp.execute` (:func:`execute`, :func:`gather`).

The Python implementation remains the behavioural reference: the golden
stats gate, ``tests/pipeline/test_ckern.py`` and the lockstep fuzzer hold
both paths to bit-identical results. Set ``REPRO_PURE_PY=1`` to force the
Python path (or when no C compiler is available, it is used
automatically).
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import shutil
import subprocess
import tempfile
import time
import weakref
from array import array
from functools import lru_cache
from itertools import compress, islice
from typing import List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_ckern.c")

# -- configuration slots (must match the enum in _ckern.c) -------------
(CFG_WIDTH, CFG_ISSUE_QUEUE, CFG_RENAME_POOL, CFG_ROB,
 CFG_LOAD_QUEUE, CFG_STORE_QUEUE,
 CFG_PORTS_SIMPLE, CFG_PORTS_COMPLEX, CFG_PORTS_LOAD, CFG_PORTS_STORE,
 CFG_FRONT_DELAY, CFG_REGREAD, CFG_TO_COMMIT,
 CFG_IL1_SETS, CFG_IL1_ASSOC, CFG_IL1_LINE, CFG_IL1_LAT,
 CFG_DL1_SETS, CFG_DL1_ASSOC, CFG_DL1_LINE, CFG_DL1_LAT,
 CFG_L2_SETS, CFG_L2_ASSOC, CFG_L2_LINE, CFG_L2_LAT,
 CFG_MEM_LATENCY,
 CFG_ITLB_SETS, CFG_ITLB_ASSOC, CFG_DTLB_SETS, CFG_DTLB_ASSOC,
 CFG_TLB_MISS_PENALTY,
 CFG_BIM_MASK, CFG_GSH_MASK, CFG_CHO_MASK,
 CFG_BTB_SETS, CFG_BTB_ASSOC, CFG_RAS_ENTRIES,
 CFG_SS_MASK, CFG_FORWARD_LATENCY,
 CFG_IL1_NLP, CFG_DL1_STRIDE, CFG_STRIDE_MASK, CFG_STRIDE_CONF,
 CFG_MG_MAX_ISSUE, CFG_MG_MAX_MEM_ISSUE, CFG_MG_ALU_PIPES,
 CFG_MGT_ENTRIES, CFG_MGT_FILL_LATENCY,
 CFG_FETCH_BUFFER_CAP, CFG_WARM, CFG_OP_JAL, CFG_OP_JR,
 CFG_COUNT) = range(53)

# -- output slots (must match the enum in _ckern.c) --------------------
(OUT_CYCLES, OUT_CYCLES_SKIPPED,
 OUT_ORIGINAL_COMMITTED, OUT_HANDLES_COMMITTED, OUT_EMBEDDED_COMMITTED,
 OUT_SLOTS_COMMITTED,
 OUT_FETCH_CYCLES_BLOCKED, OUT_ICACHE_STALL_CYCLES,
 OUT_COND_PRED, OUT_COND_MISPRED, OUT_IND_PRED, OUT_IND_MISPRED,
 OUT_LOADS_ISSUED, OUT_STORE_FORWARDS, OUT_ORDERING_VIOLATIONS,
 OUT_REPLAYS,
 OUT_MG_SERIALIZED, OUT_MG_CONSUMER_DELAYS, OUT_MGT_MISSES,
 OUT_IL1_ACC, OUT_IL1_MISS, OUT_DL1_ACC, OUT_DL1_MISS,
 OUT_L2_ACC, OUT_L2_MISS,
 OUT_ITLB_ACC, OUT_ITLB_MISS, OUT_DTLB_ACC, OUT_DTLB_MISS,
 OUT_IL1_PF_ISSUED, OUT_DL1_PF_ISSUED, OUT_SS_VIOLATIONS,
 OUT_ACT_FETCH_SLOTS, OUT_ACT_RENAME_OPS, OUT_ACT_MAP_READS,
 OUT_ACT_PHYS_ALLOCS, OUT_ACT_IQ_INSERTIONS,
 OUT_ACT_IQ_OCCUPANCY, OUT_ACT_WINDOW_OCCUPANCY,
 OUT_ACT_SELECT_SLOTS, OUT_ACT_RF_READS, OUT_ACT_RF_WRITES,
 OUT_ACT_COMMIT_SLOTS, OUT_ACT_CYCLES,
 OUT_DEAD_CYCLE, OUT_DEAD_IX, OUT_DEAD_WINDOW,
 OUT_MG_DISABLED, OUT_OUTLINE_JUMPS,
 OUT_COUNT) = range(50)

RC_OK = 0
RC_BUDGET = 1
RC_NO_COMMIT = 2
RC_NOMEM = 3
RC_UNSUPPORTED = 4  # fold / plan kernels: shape outside kernel bounds
RC_LAYOUT = 5       # fold: the trace does not follow the plan's sites

#: int64 words per plan site in :func:`fold`'s site table (the FS_*
#: enum in _ckern.c): start, end, handle_pc, template id, nominal output
#: latency, output producer index, flags, mem_pc, output register,
#: source offset/count and (reg, consumer) pair offset/count into
#: ``ext``, outlined pc, site id.
FOLD_SITE_WORDS = 15

# -- Slack-Dynamic state words (must match PP_* / PS_* in _ckern.c) ----
# A batch descriptor's policy header: parameters, running event totals
# and the sequence that numbers dict entries the run creates.
(PP_MODE, PP_OUTLINED, PP_THRESHOLD, PP_DECAY, PP_RESURRECT,
 PP_DISABLE_EVENTS, PP_RESURRECT_EVENTS, PP_SEQ, PP_WORDS) = range(9)
# Per arena site: hysteresis state, benign count, and whether the
# policy's ``_sites`` / ``_benign`` dicts hold the site (-1 no, 0 before
# the run, k >= 1 created k-th during it).
(PS_COUNTER, PS_DISABLED, PS_QUIET, PS_BENIGN, PS_ENTRY, PS_BENIGN_ENTRY,
 PS_WORDS) = range(7)
POLICY_MODES = {"full": 0, "delay": 1, "sial": 2}

#: Source positions per singleton in the packed profile columns
#: (stride of the ``src_sum``/``src_count``/``src_ready`` columns; the
#: ISA has at most 3 operands, must match PLAN_MAX_SRC in _ckern.c).
PLAN_MAX_SRC = 4

# -- event-tap tags (must match _ckern.c) ------------------------------
# Each event is three int64 words: ``(ix << 4) | tag, a, b``. See
# docs/performance.md for the full record catalogue.
TAP_ISSUE = 1      # a = issue cycle, b = out_actual_ready (raw, BIG if none)
TAP_CONSUME = 2    # ix = producer; a = cycle - ready, b = consumer ix
TAP_REDIRECT = 3   # a = resolve cycle
TAP_HANDLE = 4     # a = serialized | sial << 1, b = last - first_ready
TAP_CDELAY = 5     # ix = serialized producer handle
TAP_VALUE = 6      # singleton issue; a = value-ready, b = complete cycle
TAP_WORDS = 3      # int64 words per event

# tap_flags bits (must match TAPF_* in _ckern.c). Opt-in record families
# beyond the base catalogue; each costs buffer capacity, so observers
# advertise what they need via ``ckern_tap_flags``.
TAP_FLAG_GLOBAL = 1  # TAP_VALUE records for the global-slack backward DP

# The kernel bounds per-uop producer fan-in; traces beyond it (none in
# practice: ISA ops have <= 3 sources, handles a handful of external
# inputs) fall back to the Python path.
MAX_PRODUCERS = 8

_I64P = ctypes.POINTER(ctypes.c_int64)
_U64P = ctypes.POINTER(ctypes.c_uint64)
_I8P = ctypes.POINTER(ctypes.c_int8)
_DBLP = ctypes.POINTER(ctypes.c_double)


class _CTrace(ctypes.Structure):
    """Mirror of the CTrace struct in ``_ckern.c`` (field order matters)."""

    _fields_ = [
        ("pc", _I64P), ("op", _I64P), ("opclass", _I64P),
        ("latency", _I64P), ("rd", _I64P), ("addr", _I64P),
        ("next_pc", _I64P), ("srcs", _I64P), ("srcs_start", _I64P),
        ("kind", _I8P), ("taken", _I8P),
        ("n", ctypes.c_int64),
        ("hidx", _I64P),
        ("h_tpl", _I64P), ("h_nominal", _I64P), ("h_outix", _I64P),
        ("h_flags", _I64P),
        ("h_mem_pc", _I64P), ("h_site", _I64P), ("h_coff", _I64P),
        ("h_cnt", _I64P),
        ("c_opclass", _I64P), ("c_latency", _I64P), ("c_addr", _I64P),
        ("c_rd", _I64P),
        ("c_srcs", _I64P), ("c_srcs_start", _I64P), ("c_taken", _I8P),
        ("site_consumer_ix", _I64P),
        ("site_outlined_pc", _I64P), ("site_id", _I64P),
        ("n_handles", ctypes.c_int64), ("n_sites", ctypes.c_int64),
    ]


class _CBatchPoint(ctypes.Structure):
    """Mirror of the BatchPoint struct in ``_ckern.c``."""

    _fields_ = [
        ("cfg", _I64P),
        ("trace", ctypes.POINTER(_CTrace)),
        ("out", _I64P),
        ("max_cycles", ctypes.c_int64),
        ("tap", _I64P),
        ("tap_cap", ctypes.c_int64),
        ("tap_flags", ctypes.c_int64),
        ("pol", _I64P),
        ("pol_sites", _I64P),
        ("status", ctypes.c_int64),
        ("tap_len", ctypes.c_int64),
        ("tap_ovf", ctypes.c_int64),
    ]


#: Native entry points, each timed around its ctypes call alone.
ENTRY_POINTS = ("fold", "run_batch", "profile_build", "plan_enumerate",
                "plan_score", "global_fold", "execute", "gather")

# Dispatch/fallback tallies, harvested post-hoc by
# ``repro.obs.metrics.collect_ckern`` (pure counters: reading or
# exporting them never changes behaviour).
counters = {
    "batch_dispatches": 0,     # repro_run_batch native calls
    "batch_points": 0,         # points submitted across all batches
    "batch_fallbacks": 0,      # points degraded to the Python loop
    "batch_threads_last": 0,   # threads used by the most recent batch
    "tap_overflow_retries": 0,  # single-point 4x event-buffer retries
    "fold_fallbacks": 0,       # folds run by the Python reference
    "policy_runs_native": 0,   # Slack-Dynamic runs whose result came from C
    "policy_fallbacks": 0,     # kernel-accepted policy runs rerun in Python
    # Plan-construction kernels (profile build / enumeration / scoring).
    "profiles_built_native": 0,       # repro_profile_build successes
    "candidates_enumerated_native": 0,  # candidates packed by C enumeration
    "scoring_calls": 0,               # repro_score_candidates calls
    "global_folds_native": 0,         # repro_global_fold successes
    "plan_fallbacks": 0,       # plan-kernel calls degraded to Python
    # Functional traces (repro_execute / repro_gather).
    "execute_fallbacks": 0,    # traces the Python interpreter built
}
# Time inside C: ``<entry>_calls`` and ``<entry>_ns`` per entry point.
for _entry in ENTRY_POINTS:
    counters[_entry + "_calls"] = 0
    counters[_entry + "_ns"] = 0


def _native(entry: str, fn, *args):
    """``fn(*args)``, a ctypes call, with its time charged to ``entry``
    (the arguments are marshalled before the clock starts)."""
    start = time.perf_counter_ns()
    result = fn(*args)
    counters[entry + "_ns"] += time.perf_counter_ns() - start
    counters[entry + "_calls"] += 1
    return result


# ---------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------

_lib = None
_lib_failed = False


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or \
        os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-ckern")


def _find_compiler() -> Optional[str]:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


#: Compiler flags of the ``REPRO_CKERN_SANITIZE=1`` build. Loading it
#: needs the sanitizer runtimes preloaded (``LD_PRELOAD`` the paths
#: ``cc -print-file-name=libasan.so`` / ``libubsan.so`` print); without
#: them the load fails and the Python path runs.
SANITIZE_FLAGS = ["-O1", "-g", "-fno-omit-frame-pointer",
                  "-fsanitize=address,undefined",
                  "-fno-sanitize-recover=undefined"]


def _build() -> Optional[str]:
    """Compile ``_ckern.c`` into a cached shared object; None on failure."""
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError:
        return None
    digest = hashlib.sha256(source).hexdigest()[:16]
    compiler = _find_compiler()
    if compiler is None:
        return None
    sanitize = os.environ.get("REPRO_CKERN_SANITIZE") == "1"
    opt = SANITIZE_FLAGS if sanitize else ["-O2"]
    name = f"ckern-{digest}-san.so" if sanitize else f"ckern-{digest}.so"
    for cache_dir in (_cache_dir(),
                      os.path.join(tempfile.gettempdir(), "repro-ckern")):
        lib_path = os.path.join(cache_dir, name)
        if os.path.exists(lib_path):
            return lib_path
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
            os.close(fd)
            # Prefer the threaded build (repro_run_batch fans out over a
            # pthread pool); toolchains without pthreads still get the
            # full kernel with an in-call serial batch loop.
            built = False
            for extra in (["-pthread", "-DREPRO_THREADS=1"], []):
                cmd = [compiler, *opt, "-fPIC", "-shared", *extra,
                       "-o", tmp, _SOURCE]
                proc = subprocess.run(cmd, capture_output=True, timeout=120)
                if proc.returncode == 0:
                    built = True
                    break
            if not built:
                os.unlink(tmp)
                return None
            os.replace(tmp, lib_path)  # atomic: concurrent builds race safely
            return lib_path
        except OSError:
            continue
    return None


def _load():
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    lib_path = _build()
    if lib_path is None:
        _lib_failed = True
        return None
    try:
        lib = ctypes.CDLL(lib_path)
        lib.repro_fold.restype = ctypes.c_int64
        lib.repro_fold.argtypes = [
            ctypes.POINTER(_CTrace), _I64P, ctypes.c_int64,  # trace, pc_map
            _I64P, ctypes.c_int64, _I64P, ctypes.c_int64,    # sites, ext
            ctypes.POINTER(_CTrace), ctypes.POINTER(ctypes.c_void_p)]
        lib.repro_free.restype = None
        lib.repro_free.argtypes = [ctypes.c_void_p]
        lib.repro_run_batch.restype = ctypes.c_int64
        lib.repro_run_batch.argtypes = [ctypes.POINTER(_CBatchPoint),
                                        ctypes.c_int64, ctypes.c_int64]
        lib.repro_profile_build.restype = ctypes.c_int64
        lib.repro_profile_build.argtypes = [
            _I64P, ctypes.c_int64, ctypes.c_int64,       # event log
            _I8P, _I64P, _I64P, _I64P, _I64P,            # trace columns
            ctypes.c_int64,                              # n
            _I8P, ctypes.c_int64,                        # leaders, n_static
            ctypes.c_int64, ctypes.c_int64,              # anchor, cap
            _I64P, _I64P, _I64P, _I64P, _I64P,           # count..n_src
            _I64P, _I64P, _I64P, _I64P,                  # out/slack/min
            _I64P, _I64P]                                # order, meta
        lib.repro_enumerate_candidates.restype = ctypes.c_int64
        lib.repro_enumerate_candidates.argtypes = [
            _I64P, _I64P, _I64P, _I64P, ctypes.c_int64,  # static listing
            _I64P, _I64P, ctypes.c_int64,                # blocks
            ctypes.c_int64, ctypes.c_int64,              # max_size/ext
            _I64P, _I64P, _I64P, _I64P, _I64P, _I64P,    # candidate cols
            ctypes.c_int64]                              # cap
        lib.repro_score_candidates.restype = ctypes.c_int64
        lib.repro_score_candidates.argtypes = [
            ctypes.c_int64, _I64P, _I64P, _I64P, _I64P,  # candidates
            _I64P, _I64P, ctypes.c_int64,                # static listing
            _I8P, _DBLP, _DBLP, _DBLP, _DBLP, _I8P,      # profile columns
            ctypes.c_int64, ctypes.c_double, _I64P]      # opts, verdicts
        lib.repro_global_fold.restype = ctypes.c_int64
        lib.repro_global_fold.argtypes = [
            _I64P, ctypes.c_int64, ctypes.c_int64,       # event log
            _I8P, _I64P, ctypes.c_int64,                 # kind, pc, n
            ctypes.c_int64, _DBLP, _DBLP, _I64P]         # cap, aggregates
        lib.repro_gather.restype = ctypes.c_int64
        lib.repro_gather.argtypes = [
            _I64P, _I64P, ctypes.c_int64,                # static table
            _I64P, ctypes.c_int64,                       # pc column
            _I64P, _I64P, _I64P, _I64P, _I64P,           # op..next_pc
            _I64P, ctypes.c_int64, _I64P]                # srcs (CSR)
        # Built only where the compiler has __int128 (the exact values
        # of execute()); elsewhere every trace is executed in Python.
        if hasattr(lib, "repro_execute"):
            lib.repro_execute.restype = ctypes.c_int64
            lib.repro_execute.argtypes = [
                _I64P, ctypes.c_int64,                   # static table
                _I64P, ctypes.c_int64, ctypes.c_int64,   # data, memory
                _I64P, ctypes.c_int64,                   # regs, limit
                ctypes.POINTER(ctypes.c_void_p),         # pc, addr and
                ctypes.POINTER(ctypes.c_void_p),         # taken columns
                ctypes.POINTER(ctypes.c_void_p),
                _U64P, _I8P]                             # final memory
    except (OSError, AttributeError):
        _lib_failed = True
        return None
    _lib = lib
    return lib


def available() -> bool:
    """True when the compiled kernel can be used in this process."""
    if os.environ.get("REPRO_PURE_PY"):
        return False
    return _load() is not None


# ---------------------------------------------------------------------
# Marshalling
# ---------------------------------------------------------------------

def _col(arr, ctype):
    """A ctypes pointer over a typed array's buffer (zero-copy)."""
    if not len(arr):
        arr = array(arr.typecode, [0])
    return ((ctype * len(arr)).from_buffer(arr), arr)


def _ptr(buf, ptr_type):
    """A ``ptr_type`` at ``buf``'s address, holding no reference to it:
    ``ctypes.cast(buf, ptr_type)`` would keep ``buf`` and the array it
    exports in a reference cycle until the next full collection.
    Callers keep ``buf`` alive while the kernel may read it."""
    return ctypes.cast(ctypes.addressof(buf), ptr_type)


#: The ctypes element and pointer type of each array typecode a kernel
#: entry takes.
_PIN_TYPES = {"q": (ctypes.c_int64, _I64P), "b": (ctypes.c_int8, _I8P),
              "d": (ctypes.c_double, _DBLP), "Q": (ctypes.c_uint64, _U64P)}


class _Pins(list):
    """The array buffers one native call reads.

    ``pin(arr)`` exports ``arr``'s buffer (zero-copy) and returns a
    pointer typed by its typecode; any typecode outside
    :data:`_PIN_TYPES` raises. The exports live in the list, so the
    caller's ``del`` after the call releases them.
    """

    def __call__(self, arr):
        try:
            ctype, ptr_type = _PIN_TYPES[arr.typecode]
        except KeyError:
            raise TypeError(f"no kernel element type for array typecode "
                            f"{arr.typecode!r}") from None
        self.append(_col(arr, ctype))
        return _ptr(self[-1][0], ptr_type)


class MarshalledTrace:
    """The flat column view of one trace handed to the kernel."""

    def __init__(self, struct, keepalive):
        self.struct = struct
        self._keepalive = keepalive  # buffers the struct points into

    def columns(self) -> dict:
        """Every column (as a list) and count of the arena, by name."""
        t = self.struct
        n, nh, ns = t.n, t.n_handles, t.n_sites
        nc = t.h_coff[nh - 1] + t.h_cnt[nh - 1] if nh else 0
        cols = {"n": n, "n_handles": nh, "n_sites": ns,
                "srcs_start": t.srcs_start[:n + 1],
                "srcs": t.srcs[:t.srcs_start[n]],
                "c_srcs_start": t.c_srcs_start[:nc + 1],
                "c_srcs": t.c_srcs[:t.c_srcs_start[nc]],
                "site_consumer_ix": t.site_consumer_ix[:32 * ns],
                "site_outlined_pc": t.site_outlined_pc[:ns],
                "site_id": t.site_id[:ns]}
        for name in ("pc", "op", "opclass", "latency", "rd", "addr",
                     "next_pc", "kind", "taken", "hidx"):
            cols[name] = getattr(t, name)[:n]
        for name in ("h_tpl", "h_nominal", "h_outix", "h_flags",
                     "h_mem_pc", "h_site", "h_coff", "h_cnt"):
            cols[name] = getattr(t, name)[:nh]
        for name in ("c_opclass", "c_latency", "c_addr", "c_rd", "c_taken"):
            cols[name] = getattr(t, name)[:nc]
        return cols


def marshal(packed) -> Optional[MarshalledTrace]:
    """Flatten ``packed`` (a PackedTrace) for the kernel; None if the
    trace exceeds a kernel bound (caller falls back to Python)."""
    n = packed.n
    srcs_start = packed.srcs_start
    if max(map(operator.sub, islice(srcs_start, 1, None), srcs_start),
           default=0) > MAX_PRODUCERS:
        return None

    hidx = array("q", [-1]) * n
    h_tpl = array("q")
    h_nominal = array("q")
    h_outix = array("q")
    h_flags = array("q")
    h_mem_pc = array("q")
    h_site = array("q")
    h_coff = array("q")
    h_cnt = array("q")
    c_opclass = array("q")
    c_latency = array("q")
    c_addr = array("q")
    c_rd = array("q")
    c_srcs = array("q")
    c_srcs_start = array("q", [0])
    c_taken = array("b")
    site_ids = {}           # id(site) -> dense index
    site_tables = array("q")
    site_outlined_pc = array("q")
    site_id = array("q")
    kinds = packed.kind
    # Handle rows (kind 1; a singleton is kind 0) exist only in a stream
    # packed from handle objects, so a singleton trace skips the loop
    # and never builds its record view here.
    handle_rows = compress(range(n), kinds) if 1 in kinds else ()
    for ix in handle_rows:
        rec = packed.objs[ix]
        site = rec.site
        tpl = rec.template
        key = id(site)
        dense = site_ids.get(key)
        if dense is None:
            dense = len(site_ids)
            site_ids[key] = dense
            table = [0] * 32
            for reg, consumer in site.input_consumer_ix.items():
                if 0 <= reg < 32:
                    table[reg] = consumer
            site_tables.extend(table)
            site_outlined_pc.append(site.outlined_pc)
            site_id.append(site.id)
        hidx[ix] = len(h_tpl)
        h_tpl.append(tpl.id)
        h_nominal.append(tpl.nominal_out_latency)
        h_outix.append(tpl.out_producer_ix)
        h_flags.append((1 if tpl.has_branch else 0) |
                       (2 if tpl.has_load else 0) |
                       (4 if tpl.has_store else 0))
        h_mem_pc.append(rec.site.mem_pc)
        h_site.append(dense)
        h_coff.append(len(c_opclass))
        h_cnt.append(len(rec.constituents))
        for c in rec.constituents:
            if len(c.srcs) > MAX_PRODUCERS:
                return None
            c_opclass.append(c.opclass)
            c_latency.append(c.latency)
            c_addr.append(c.addr)
            c_rd.append(c.rd)
            c_srcs.extend(c.srcs)
            c_srcs_start.append(len(c_srcs))
            c_taken.append(c.taken)

    keepalive = []

    def col(arr, ctype=ctypes.c_int64):
        buf, owner = _col(arr, ctype)
        keepalive.append(owner)
        keepalive.append(buf)
        return _ptr(buf, ctypes.POINTER(ctype))

    struct = _CTrace(
        pc=col(packed.pc), op=col(packed.op), opclass=col(packed.opclass),
        latency=col(packed.latency), rd=col(packed.rd),
        addr=col(packed.addr), next_pc=col(packed.next_pc),
        srcs=col(packed.srcs), srcs_start=col(packed.srcs_start),
        kind=col(packed.kind, ctypes.c_int8),
        taken=col(packed.taken, ctypes.c_int8),
        n=n,
        hidx=col(hidx), h_tpl=col(h_tpl), h_nominal=col(h_nominal),
        h_outix=col(h_outix), h_flags=col(h_flags),
        h_mem_pc=col(h_mem_pc), h_site=col(h_site), h_coff=col(h_coff),
        h_cnt=col(h_cnt),
        c_opclass=col(c_opclass), c_latency=col(c_latency),
        c_addr=col(c_addr), c_rd=col(c_rd),
        c_srcs=col(c_srcs), c_srcs_start=col(c_srcs_start),
        c_taken=col(c_taken, ctypes.c_int8),
        site_consumer_ix=col(site_tables),
        site_outlined_pc=col(site_outlined_pc), site_id=col(site_id),
        n_handles=len(h_tpl), n_sites=len(site_ids),
    )
    return MarshalledTrace(struct, keepalive)


#: Each live PackedTrace's arena (or None, over a kernel bound). The
#: arena holds the trace's columns, never the trace, so the entry goes
#: with its trace, and with it the column exports.
_arenas = weakref.WeakKeyDictionary()


def marshal_shared(packed) -> Optional[MarshalledTrace]:
    """Memoizing :func:`marshal`: one arena per trace, for as long as the
    trace lives, shared by every point that runs it (a batch, a selector
    sweep over one program). Safe because the kernel reads the columns
    strictly read-only."""
    try:
        return _arenas[packed]
    except KeyError:
        mtrace = _arenas[packed] = marshal(packed)
        return mtrace


def fold(packed, pc_map: array, sites: array, ext: array
         ) -> Optional[MarshalledTrace]:
    """The folded trace's kernel arena, built in C from the singleton
    trace ``packed`` and a per-site plan table.

    ``pc_map`` is the post-outlining pc of every static instruction;
    ``sites`` holds :data:`FOLD_SITE_WORDS` words per plan site and
    ``ext`` the source registers and (reg, consumer) pairs they point
    at (both built by ``minigraph.transform``). The result matches
    ``marshal`` of the Python reference fold column for column and owns
    one C allocation, freed with it. None when the library is
    unavailable or the C fold declines (a shape beyond the kernel
    bounds, or a trace off the plan's site layout): the caller then
    runs the reference fold, which raises exactly as before.
    """
    if not available():
        return None
    src = marshal_shared(packed)
    if src is None:
        return None
    lib = _load()
    pin = _Pins()
    struct = _CTrace()
    block = ctypes.c_void_p()
    rc = _native("fold", lib.repro_fold, ctypes.byref(src.struct),
                 pin(pc_map), len(pc_map), pin(sites),
                 len(sites) // FOLD_SITE_WORDS, pin(ext), len(ext),
                 ctypes.byref(struct), ctypes.byref(block))
    del pin
    if rc != RC_OK:
        return None
    mtrace = MarshalledTrace(struct, None)
    weakref.finalize(mtrace, lib.repro_free, block.value)
    return mtrace


def pack_config(config, warm_caches: bool) -> array:
    """The flat int64 config block consumed by the kernel."""
    from ..isa import opcodes as oc
    from .caches import TLB_MISS_PENALTY

    cfg = array("q", [0] * CFG_COUNT)
    cfg[CFG_WIDTH] = config.width
    cfg[CFG_ISSUE_QUEUE] = config.issue_queue
    cfg[CFG_RENAME_POOL] = max(config.phys_regs - 64, 8)
    cfg[CFG_ROB] = config.rob
    cfg[CFG_LOAD_QUEUE] = config.load_queue
    cfg[CFG_STORE_QUEUE] = config.store_queue
    cfg[CFG_PORTS_SIMPLE] = config.ports_simple
    cfg[CFG_PORTS_COMPLEX] = config.ports_complex
    cfg[CFG_PORTS_LOAD] = config.ports_load
    cfg[CFG_PORTS_STORE] = config.ports_store
    cfg[CFG_FRONT_DELAY] = config.stages_front - 1
    cfg[CFG_REGREAD] = config.stages_regread
    cfg[CFG_TO_COMMIT] = config.stages_to_commit
    for slot, cc in ((CFG_IL1_SETS, config.il1), (CFG_DL1_SETS, config.dl1),
                     (CFG_L2_SETS, config.l2)):
        cfg[slot] = cc.n_sets
        cfg[slot + 1] = cc.assoc
        cfg[slot + 2] = cc.line_bytes
        cfg[slot + 3] = cc.latency
    cfg[CFG_MEM_LATENCY] = config.mem_latency
    cfg[CFG_ITLB_SETS] = 64 // 4        # Tlb() defaults in caches.py
    cfg[CFG_ITLB_ASSOC] = 4
    cfg[CFG_DTLB_SETS] = 64 // 4
    cfg[CFG_DTLB_ASSOC] = 4
    cfg[CFG_TLB_MISS_PENALTY] = TLB_MISS_PENALTY
    cfg[CFG_BIM_MASK] = (1 << config.bimodal_bits) - 1
    cfg[CFG_GSH_MASK] = (1 << config.gshare_bits) - 1
    cfg[CFG_CHO_MASK] = (1 << config.chooser_bits) - 1
    cfg[CFG_BTB_SETS] = config.btb_entries // config.btb_assoc
    cfg[CFG_BTB_ASSOC] = config.btb_assoc
    cfg[CFG_RAS_ENTRIES] = config.ras_entries
    cfg[CFG_SS_MASK] = config.store_sets - 1
    cfg[CFG_FORWARD_LATENCY] = config.forward_latency
    cfg[CFG_IL1_NLP] = 1 if config.il1_next_line_prefetch else 0
    cfg[CFG_DL1_STRIDE] = 1 if config.dl1_stride_prefetch else 0
    cfg[CFG_STRIDE_MASK] = 256 - 1      # StridePrefetcher() defaults
    cfg[CFG_STRIDE_CONF] = 2
    cfg[CFG_MG_MAX_ISSUE] = config.mg_max_issue
    cfg[CFG_MG_MAX_MEM_ISSUE] = config.mg_max_mem_issue
    cfg[CFG_MG_ALU_PIPES] = config.mg_alu_pipelines
    cfg[CFG_MGT_ENTRIES] = config.mgt_entries
    cfg[CFG_MGT_FILL_LATENCY] = config.l2.latency
    cfg[CFG_FETCH_BUFFER_CAP] = (config.stages_front + 2) * config.width
    cfg[CFG_WARM] = 1 if warm_caches else 0
    cfg[CFG_OP_JAL] = oc.JAL
    cfg[CFG_OP_JR] = oc.JR
    return cfg


@lru_cache(maxsize=None)
def pack_config_cached(config, warm_caches: bool) -> array:
    """Memoized :func:`pack_config` (MachineConfig is frozen/hashable).

    The returned block is shared: the kernel treats it as ``const`` and
    callers must never mutate it. Every timing point re-packed the same
    handful of named configs before; a batch now packs each distinct
    ``(config, warm)`` once.
    """
    return pack_config(config, warm_caches)


def tap_capacity(packed) -> int:
    """Initial event-buffer capacity (int64 words) for ``packed``.

    A squash-free run emits at most one ISSUE plus one HANDLE per record
    and one CONSUME per (deduped) source, so ``2n + |srcs|`` events with
    a flat floor covers it; squash/replay storms beyond the slack are
    absorbed by one 4x retry before falling back to the Python loop.
    """
    return (2 * packed.n + len(packed.srcs) + 4096) * TAP_WORDS


#: One batch descriptor: ``(cfg, mtrace, max_cycles, tap_words,
#: tap_flags, policy)`` — ``tap_words == 0`` runs the point unobserved,
#: ``policy`` is a Slack-Dynamic ``(header, sites)`` pair or None.
BatchEntry = Tuple[array, MarshalledTrace, int, int, int,
                   Optional[Tuple[array, array]]]


def run_batch(entries: Sequence[BatchEntry], threads: int
              ) -> Optional[List[tuple]]:
    """Run N timing points in one native, GIL-released call: the only
    way into the compiled timing kernel (a single run is a batch of one).

    Each entry is ``(cfg, mtrace, max_cycles, tap_words, tap_flags,
    policy)``; marshalled traces and packed configs may (and should) be
    shared between entries — the kernel reads both strictly read-only.
    ``tap_words > 0`` arms the event tap with a buffer of that many
    int64 words (``tap_flags`` selects opt-in record families,
    :data:`TAP_FLAG_GLOBAL` adds TAP_VALUE records). ``policy`` runs the
    point under the Slack-Dynamic monitor: ``header``
    (:data:`PP_WORDS`) and ``sites`` (:data:`PS_WORDS` per arena site,
    ``mtrace.struct.site_id`` order) hold the policy's parameters and
    starting state and are updated in place to its final state, also
    on a simulated deadlock; on ``RC_NOMEM`` they are partly updated
    and must be discarded.

    Returns a per-point list of ``(rc, out, events, n_words,
    overflowed)`` in entry order: ``out`` is the counter block, and the
    first ``n_words`` entries of ``events`` are valid packed events (on
    overflow the log is truncated, the counters are still exact, and
    the caller retries with a larger buffer or runs the Python loop).
    None when the library is unavailable (the caller runs the Python
    loop). Failures are per-point: one point's budget/deadlock/overflow
    never poisons its batchmates. The kernel never mutates Python state
    other than these buffers, so any failure leaves a core free to
    rerun in pure Python.
    """
    if not available():
        return None
    lib = _load()
    n = len(entries)
    if n == 0:
        return []
    pts = (_CBatchPoint * n)()
    keepalive = []
    cells = []
    for i, (cfg, mtrace, max_cycles, tap_words, tap_flags, policy) in \
            enumerate(entries):
        out = array("q", [0] * OUT_COUNT)
        cfg_buf, cfg_owner = _col(cfg, ctypes.c_int64)
        out_buf = (ctypes.c_int64 * OUT_COUNT).from_buffer(out)
        p = pts[i]
        p.cfg = _ptr(cfg_buf, _I64P)
        p.trace = ctypes.pointer(mtrace.struct)
        p.out = _ptr(out_buf, _I64P)
        p.max_cycles = max_cycles
        if tap_words > 0:
            events = array("q", bytes(8 * tap_words))
            tap_buf = (ctypes.c_int64 * tap_words).from_buffer(events)
            p.tap = _ptr(tap_buf, _I64P)
            p.tap_cap = tap_words
        else:
            events = None
            tap_buf = None
            p.tap = None
            p.tap_cap = 0
        p.tap_flags = tap_flags
        if policy is not None:
            header, sites = policy
            if len(header) != PP_WORDS or \
                    len(sites) != PS_WORDS * mtrace.struct.n_sites:
                raise ValueError("policy state does not match the trace's "
                                 "sites")
            head_buf = (ctypes.c_int64 * PP_WORDS).from_buffer(header)
            sites_buf, sites_owner = _col(sites, ctypes.c_int64)
            p.pol = _ptr(head_buf, _I64P)
            p.pol_sites = _ptr(sites_buf, _I64P)
            keepalive.append((head_buf, sites_buf, sites_owner))
        keepalive.append((cfg_buf, cfg_owner, out_buf, tap_buf, mtrace))
        cells.append((out, events))
    used = _native("run_batch", lib.repro_run_batch, pts, n,
                   max(1, threads))
    counters["batch_dispatches"] += 1
    counters["batch_points"] += n
    counters["batch_threads_last"] = int(used)
    results = []
    for i, (out, events) in enumerate(cells):
        p = pts[i]
        results.append((int(p.status), out, events, int(p.tap_len),
                        bool(p.tap_ovf)))
    del keepalive, pts  # release from_buffer exports before returning
    return results


# ---------------------------------------------------------------------
# Plan-construction kernels
# ---------------------------------------------------------------------
#
# Thin array-in/array-out wrappers over the _ckern.c plan entry points.
# Domain logic (what the columns mean, how packed triples rehydrate to
# Candidate objects) lives with the Python reference implementations in
# minigraph/slack.py, minigraph/candidates.py, minigraph/delay_model.py
# and analysis/global_slack.py; every wrapper returns None when the
# library is unavailable (or the shape exceeds the packed-format
# bounds) so those references remain the fallback path.


class PackedProfileAcc:
    """SoA accumulator columns from one native profile build.

    Dense per-static-pc ``array('q')`` columns mirroring
    ``minigraph.slack._Accumulator`` field for field (the source
    columns use stride :data:`PLAN_MAX_SRC`); ``order`` lists the
    first-commit pcs in commit order so ``profile()`` iterates entries
    exactly as the reference ``_acc`` dict would.
    """

    __slots__ = ("n_static", "count", "issue_sum", "src_sum", "src_count",
                 "n_src", "out_sum", "out_count", "slack_sum", "min_slack",
                 "order", "n_order", "anchor")


def profile_build(events: array, n_words: int, n_committed: int,
                  packed, is_leader: array, n_static: int,
                  anchor: int, slack_cap: int
                  ) -> Optional[PackedProfileAcc]:
    """One-call slack-profile build from a packed event log.

    Runs both passes of ``SlackCollector.ingest_ckern_tap`` in C: the
    event fold into per-record cells, then the committed-prefix
    aggregation. Returns the packed accumulator columns, or None
    (library unavailable, ``REPRO_PURE_PY``, unsupported shape or
    ``RC_NOMEM``) — the caller then runs the Python reference decode.
    """
    if not available():
        return None
    lib = _load()
    n = packed.n
    if n == 0 or n_committed > n or n_static <= 0:
        return None
    acc = PackedProfileAcc()
    acc.n_static = n_static
    acc.count = array("q", bytes(8 * n_static))
    acc.issue_sum = array("q", bytes(8 * n_static))
    acc.src_sum = array("q", bytes(8 * n_static * PLAN_MAX_SRC))
    acc.src_count = array("q", bytes(8 * n_static * PLAN_MAX_SRC))
    acc.n_src = array("q", bytes(8 * n_static))
    acc.out_sum = array("q", bytes(8 * n_static))
    acc.out_count = array("q", bytes(8 * n_static))
    acc.slack_sum = array("q", bytes(8 * n_static))
    acc.min_slack = array("q", [slack_cap]) * n_static
    acc.order = array("q", bytes(8 * n_static))
    meta = array("q", [0, 0])
    pin = _Pins()
    rc = _native(
        "profile_build", lib.repro_profile_build,
        pin(events), n_words, n_committed,
        pin(packed.kind), pin(packed.pc), pin(packed.rd),
        pin(packed.srcs), pin(packed.srcs_start), n,
        pin(is_leader), n_static, anchor, slack_cap,
        pin(acc.count), pin(acc.issue_sum),
        pin(acc.src_sum), pin(acc.src_count), pin(acc.n_src),
        pin(acc.out_sum), pin(acc.out_count),
        pin(acc.slack_sum), pin(acc.min_slack),
        pin(acc.order), pin(meta))
    del pin
    if rc != RC_OK:
        counters["plan_fallbacks"] += 1
        return None
    acc.n_order = meta[0]
    acc.anchor = meta[1]
    counters["profiles_built_native"] += 1
    return acc


def plan_enumerate(opclass: array, rd_eff: array, srcs3: array,
                   live_mask: array, block_start: array, block_end: array,
                   max_size: int, max_ext: int) -> Optional[tuple]:
    """Native candidate enumeration over static-listing columns.

    Returns ``(n, start, end, ext, out, edges, ser)`` packed candidate
    columns (formats documented in ``_ckern.c``), or None when the
    library is unavailable or the window bounds exceed the packed
    format (``max_size > 4`` / ``max_ext > 3``) — the caller then runs
    the Python enumeration loop.
    """
    if not available() or not (2 <= max_size <= 4) or not \
            (0 <= max_ext <= 3):
        return None
    lib = _load()
    n_static = len(opclass)
    n_blocks = len(block_start)
    cap = 3 * n_static + 8
    cols = tuple(array("q", bytes(8 * cap)) for _ in range(6))
    pin = _Pins()
    n_cand = _native(
        "plan_enumerate", lib.repro_enumerate_candidates,
        pin(opclass), pin(rd_eff), pin(srcs3), pin(live_mask), n_static,
        pin(block_start), pin(block_end), n_blocks, max_size, max_ext,
        pin(cols[0]), pin(cols[1]), pin(cols[2]), pin(cols[3]),
        pin(cols[4]), pin(cols[5]), cap)
    del pin
    if n_cand < 0:
        counters["plan_fallbacks"] += 1
        return None
    counters["candidates_enumerated_native"] += n_cand
    return (n_cand,) + cols


def plan_score(n_cand: int, c_start: array, c_end: array, c_ext: array,
               c_out: array, opclass: array, latency: array,
               p_present: array, p_rel_issue: array, p_src_ready: array,
               p_slack: array, p_out_ready: array, p_has_out: array,
               measured: bool, tolerance: float) -> Optional[array]:
    """Delay-model rules #1-#4 for a whole candidate set, in C.

    Returns one verdict bitmask per candidate (bit 0 profiled, bit 1
    degrades, bit 2 degrades on any output delay, bit 3 SIAL), or None
    when the library is unavailable — the caller then assesses per
    candidate through ``delay_model.assess``.
    """
    if not available() or n_cand <= 0:
        return None
    lib = _load()
    verdicts = array("q", bytes(8 * n_cand))
    pin = _Pins()
    rc = _native(
        "plan_score", lib.repro_score_candidates,
        n_cand, pin(c_start), pin(c_end), pin(c_ext), pin(c_out),
        pin(opclass), pin(latency), len(opclass),
        pin(p_present), pin(p_rel_issue), pin(p_src_ready), pin(p_slack),
        pin(p_out_ready), pin(p_has_out),
        1 if measured else 0, float(tolerance), pin(verdicts))
    del pin
    if rc != RC_OK:
        counters["plan_fallbacks"] += 1
        return None
    counters["scoring_calls"] += 1
    return verdicts


def global_fold(events: array, n_words: int, n_committed: int,
                packed, n_static: int, slack_cap: int) -> Optional[tuple]:
    """Global-slack event decode plus backward DP, in C.

    Returns ``(n_singletons, sums, mins, counts)`` per-static-pc
    aggregate columns (``sums``/``mins`` are ``array('d')`` holding the
    exact doubles the Python DP would), or None — the caller then runs
    the reference decode in ``analysis/global_slack.py``.
    """
    if not available():
        return None
    lib = _load()
    n = packed.n
    if n == 0 or n_committed > n or n_static <= 0:
        return None
    sums = array("d", bytes(8 * n_static))
    mins = array("d", [float(slack_cap)]) * n_static
    counts = array("q", bytes(8 * n_static))
    pin = _Pins()
    rc = _native(
        "global_fold", lib.repro_global_fold,
        pin(events), n_words, n_committed,
        pin(packed.kind), pin(packed.pc), n,
        slack_cap, pin(sums), pin(mins), pin(counts))
    del pin
    if rc < 0:
        counters["plan_fallbacks"] += 1
        return None
    counters["global_folds_native"] += 1
    return int(rc), sums, mins, counts


# ---------------------------------------------------------------------
# Functional traces
# ---------------------------------------------------------------------
#
# ``repro_execute`` runs a program as ``isa.interp.execute`` does and
# ``repro_gather`` derives a trace's columns as ``_pack_execution``
# does; both Python functions stay as the reference and run whenever
# these wrappers return None.

#: The opcodes ``repro_execute`` runs, by mnemonic, in the order of the
#: EX_* enum in _ckern.c. Any other opcode (the mini-graph handle) has
#: code -1, and the kernel declines a program that reaches one.
EXEC_OPS = ("add", "sub", "and", "or", "xor", "nor", "sll", "srl", "sra",
            "slt", "sltu", "seq", "cmovz", "cmovn",
            "addi", "andi", "ori", "xori", "slli", "srli", "srai",
            "slti", "seqi", "li",
            "mul", "mulh", "div", "rem", "fadd", "fmul",
            "ld", "st",
            "beq", "bne", "blt", "bge", "bltu", "bgeu", "jmp", "jal", "jr",
            "nop", "halt")


@lru_cache(maxsize=None)
def _exec_codes() -> tuple:
    """The EX_* code of every opcode, indexed by opcode."""
    from ..isa.opcodes import OP_INFO
    return tuple(EXEC_OPS.index(info.name) if info.name in EXEC_OPS
                 else -1 for info in OP_INFO)


def _take(block: ctypes.c_void_p, code: str, n: int) -> array:
    """The ``n``-entry column the kernel allocated at ``block``, copied
    into an array; the block is freed."""
    col = array(code)
    col.frombytes(ctypes.string_at(block, n * col.itemsize))
    _lib.repro_free(block)
    return col


def execute(program, max_insts: int, regs_init, capture_memory: bool
            ) -> Optional[tuple]:
    """Run ``program`` in C, as :func:`repro.isa.interp.execute` runs it.

    Returns the ``pc``, ``addr`` and ``taken`` columns and the final
    memory (a list of the Python ints ``execute`` holds, or None without
    ``capture_memory``). Returns None when the kernel is unavailable or
    declines, counting each decline in ``execute_fallbacks``; the caller
    then runs the Python loop, which raises or computes what it always
    did. The kernel declines an immediate, data word or ``regs_init``
    value outside int64, a ``regs_init`` shorter than 32 words, and
    whatever ``repro_execute`` declines: a fault, the instruction limit,
    a MULH or FMUL operand outside ``[0, 2**64)``, a DIV or REM signed
    operand beyond ``+-2**53`` and an opcode it has no code for.
    """
    if not available() or not hasattr(_lib, "repro_execute"):
        return None
    insts = program.instructions
    codes = _exec_codes()
    rows = array("q")
    try:
        for inst in insts:
            srcs = (*inst.srcs, 0, 0, 0)
            rows.extend((codes[inst.op], -1 if inst.rd is None else inst.rd,
                         srcs[0], srcs[1], srcs[2], inst.imm))
        data = array("q", program.data)
        regs = None if regs_init is None else array("q", regs_init)
        fits = regs is None or len(regs) >= 32
    except (OverflowError, TypeError):  # a value array('q') cannot hold
        fits = False
    if not fits:
        counters["execute_fallbacks"] += 1
        return None
    words = program.memory_words
    # The final memory, each word as its low 64 bits and a sign flag.
    memory = (array("Q", bytes(8 * words)), array("b", bytes(words))) \
        if capture_memory else None
    cols = (ctypes.c_void_p(), ctypes.c_void_p(), ctypes.c_void_p())
    pin = _Pins()
    n = _native("execute", _lib.repro_execute, pin(rows), len(insts),
                pin(data), len(data), words,
                None if regs is None else pin(regs), max_insts,
                *map(ctypes.byref, cols),
                *(map(pin, memory) if memory else (None, None)))
    del pin
    if n <= 0:
        counters["execute_fallbacks"] += 1
        return None
    pc, addr, taken = (_take(block, code, n)
                       for block, code in zip(cols, "qqb"))
    final_memory = None
    if memory:
        low, negative = memory
        final_memory = low.tolist()
        for i in compress(range(words), negative):
            final_memory[i] -= 1 << 64
    return pc, addr, taken, final_memory


def gather(insts, pc: array) -> Optional[tuple]:
    """The columns the program fixes, gathered in C for the executed
    ``pc`` column, as :func:`repro.isa.interp._pack_execution` builds
    them: ``op``, ``opclass``, ``latency``, ``rd``, ``next_pc``,
    ``srcs`` and ``srcs_start``. None when the kernel is unavailable or
    declines a ``pc`` outside the program (counted in
    ``execute_fallbacks``)."""
    if not available():
        return None
    rows = array("q")
    static_srcs = array("q")
    width = 0
    for inst in insts:
        srcs = inst.srcs
        rows.extend((inst.op, inst.opclass, inst.latency,
                     inst.rd if inst.writes_reg else -1,
                     len(static_srcs), len(srcs)))
        static_srcs.extend(srcs)
        width = max(width, len(srcs))
    n = len(pc)
    fixed = [array("q", bytes(8 * n)) for _ in range(5)]
    srcs = array("q", bytes(8 * n * width))
    srcs_start = array("q", bytes(8 * (n + 1)))
    pin = _Pins()
    total = _native("gather", _lib.repro_gather, pin(rows),
                    pin(static_srcs), len(insts), pin(pc), n,
                    *map(pin, fixed), pin(srcs), len(srcs),
                    pin(srcs_start))
    del pin
    if total < 0:
        counters["execute_fallbacks"] += 1
        return None
    del srcs[total:]
    return (*fixed, srcs, srcs_start)
