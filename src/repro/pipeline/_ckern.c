/* Compiled fast path for the event-driven timing core.
 *
 * This is a statement-for-statement port of the hot loop in
 * ``repro/pipeline/core.py`` for runs with no tracer (every ``repro
 * bench`` point and all memoized timing runs). Tap-capable observers
 * (SlackCollector, AttributionCollector) run here too: ``repro_run_tap``
 * appends fixed-width [(ix<<4)|tag, a, b] event triples to a
 * caller-supplied buffer, and the collectors rebuild their profiles
 * post-hoc from the log — bit-identical to the in-loop path. So does
 * the Slack-Dynamic monitor (``repro_run_policy``, a port of
 * minigraph/dynamic.py): per-site hysteresis state lives in a
 * caller-owned array and disabled sites are fetched in outlined form.
 * The Python implementation remains the behavioural reference: results
 * must be bit-identical, and ``tests/pipeline/test_ckern.py`` plus the
 * golden-stats gate and ``tests/pipeline/test_event_tap.py`` hold both
 * paths to the same numbers.
 *
 * Built on demand by ``repro/pipeline/ckern.py`` with the system C
 * compiler; when no compiler is available the Python path runs instead.
 *
 * Conventions:
 *  - all trace columns are int64 (PackedTrace array('q')) except the
 *    kind/taken flag columns (array('b'));
 *  - addresses, PCs and cycles are non-negative, so C `/` and `%` agree
 *    with Python floor division;
 *  - "None" is the sentinel -1 (or INT64_MIN where -1 is a real value).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BIG (((int64_t)1) << 60)
#define ABSENT INT64_MIN

/* Port classes (match core.py). */
#define PORT_SIMPLE 0
#define PORT_COMPLEX 1
#define PORT_LOAD 2
#define PORT_STORE 3
#define PORT_NONE 4

/* Opclasses (match isa/opcodes.py). */
#define OC_SIMPLE 0
#define OC_COMPLEX 1
#define OC_LOAD 2
#define OC_STORE 3
#define OC_BRANCH 4
#define OC_JUMP 5
#define OC_NOP 6
#define OC_HALT 7
#define OC_MGH 8           /* mini-graph handle (folded traces only) */

static const int8_t CLASS_TO_PORT[8] = {
    PORT_SIMPLE, PORT_COMPLEX, PORT_LOAD, PORT_STORE,
    PORT_SIMPLE, PORT_SIMPLE, PORT_NONE, PORT_NONE,
};

/* ----- configuration (flat int64 array; indices match ckern.py) ----- */
enum {
    CFG_WIDTH, CFG_ISSUE_QUEUE, CFG_RENAME_POOL, CFG_ROB,
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
    CFG_COUNT
};

/* ----- outputs (flat int64 array; indices match ckern.py) ----- */
enum {
    OUT_CYCLES, OUT_CYCLES_SKIPPED,
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
    OUT_COUNT
};

/* Return codes of repro_run (and of the fold / plan kernels). */
#define RC_OK 0
#define RC_BUDGET 1
#define RC_NO_COMMIT 2
#define RC_NOMEM 3
#define RC_UNSUPPORTED 4   /* shape outside kernel bounds: Python path */
#define RC_LAYOUT 5        /* trace does not follow the plan's sites */

/* Event-tap tags (opt-in packed event log; see ckern.py / docs).
 * Each event is three int64 words: (ix << 4) | tag, a, b. The tap is a
 * pure addition: no simulated state depends on it, and with a NULL
 * buffer every emission site compiles down to an untaken branch. */
#define TAP_ISSUE 1     /* a = issue cycle, b = out_actual_ready (raw) */
#define TAP_CONSUME 2   /* ix = producer; a = cycle - ready; b = consumer ix */
#define TAP_REDIRECT 3  /* a = resolve_cycle */
#define TAP_HANDLE 4    /* a = serialized | sial<<1, b = last - first_ready */
#define TAP_CDELAY 5    /* ix = serialized producer handle */
#define TAP_VALUE 6     /* singleton issue (tap_flags & TAPF_GLOBAL only):
                           a = value-ready (reg value, else store resolve,
                           else complete), b = complete_cycle */

/* tap_flags bits (repro_run_tap / BatchPoint.tap_flags). */
#define TAPF_GLOBAL 1   /* emit TAP_VALUE records for the global-slack DP */

/* Python's collector treats out_actual_ready >= 1<<50 as "no register
 * value" (a store) and falls back to the store resolve cycle. */
#define BIGT (((int64_t)1) << 50)

typedef struct {
    const int64_t *pc, *op, *opclass, *latency, *rd, *addr, *next_pc;
    const int64_t *srcs, *srcs_start;
    const int8_t *kind, *taken;
    int64_t n;
    /* mini-graph handle columns (see ckern.py marshalling) */
    const int64_t *hidx;                 /* n entries, -1 for singletons */
    const int64_t *h_tpl, *h_nominal, *h_outix, *h_flags;
    const int64_t *h_mem_pc, *h_site, *h_coff, *h_cnt;
    const int64_t *c_opclass, *c_latency, *c_addr, *c_rd;
    /* constituent sources (c_srcs_start has one more word) and branch
     * outcomes: the outlined expansion of a disabled site reads them */
    const int64_t *c_srcs, *c_srcs_start;
    const int8_t *c_taken;
    const int64_t *site_consumer_ix;     /* n_sites x 32 */
    const int64_t *site_outlined_pc;     /* n_sites: outlined body pc */
    const int64_t *site_id;              /* n_sites: MGSite.id */
    int64_t n_handles, n_sites;
} CTrace;

#define MAXP 8  /* max producers per uop (deduped sources; checked in py) */

typedef struct {
    int64_t ix, age, pc, addr, rd;
    int64_t store_pc, load_pc;
    int64_t latency;
    int64_t ready_at;
    int64_t out_pred_ready, out_actual_ready;
    int64_t complete_cycle, resolve_cycle, store_resolve_cycle;
    int64_t forwarded_from;              /* ABSENT = None */
    const int64_t *srcs;                 /* the record's source registers */
    int32_t nsrc;
    int32_t prod[MAXP];
    int32_t nprod;
    int32_t pending;
    int32_t prev_writer;                 /* uop idx or -1 */
    int32_t reg_waiters, st_waiters;     /* edge-list heads, -1 = empty */
    int32_t sub;
    int8_t kind, opclass, is_load, is_store, writes, port;
    int8_t issued, squashed, mg_serialized, expansion_jump;
} Uop;

/* ----- Slack-Dynamic state (caller-owned int64 arrays; ckern.py) -----
 * ``pol`` holds the PP_* words: the policy's parameters, its running
 * event totals and the entry-creation sequence. ``pol_sites`` holds
 * PS_WORDS per dense site (CTrace.site_id order). PS_ENTRY / PS_BENIGN_ENTRY
 * mirror whether the policy's ``_sites`` / ``_benign`` dicts have a key
 * for the site: -1 none, 0 present before the run, k >= 1 created k-th
 * during it (so the caller can insert new keys in the same order). */
enum { PP_MODE, PP_OUTLINED, PP_THRESHOLD, PP_DECAY, PP_RESURRECT,
       PP_DISABLE_EVENTS, PP_RESURRECT_EVENTS, PP_SEQ, PP_WORDS };
enum { PS_COUNTER, PS_DISABLED, PS_QUIET, PS_BENIGN, PS_ENTRY,
       PS_BENIGN_ENTRY, PS_WORDS };
#define POL_FULL 0
#define POL_DELAY 1
#define POL_SIAL 2

typedef struct { int32_t waiter, next; } Edge;

typedef struct {
    int64_t *ent;       /* sets*assoc entries, MRU-first per set */
    int32_t *cnt;       /* per-set fill count */
    int64_t sets, assoc, line, lat;
    int64_t acc, miss;
} Cache;

typedef struct {
    int64_t *page;      /* sets*assoc */
    int32_t *cnt;
    int64_t sets, assoc, penalty;
    int64_t acc, miss;
} Tlb;

typedef struct {
    const int64_t *cfg;
    const CTrace *T;
    int64_t *out;

    /* uop pool */
    Uop *pool;
    int64_t pool_len, pool_cap;
    Edge *edges;
    int64_t edges_len, edges_cap;

    /* fetch */
    int64_t fetch_ix;
    int32_t *fb_uop;        /* ring-free: simple shifting deque is fine */
    int64_t *fb_cycle;
    int64_t fb_head, fb_len, fb_cap;
    int64_t fetch_resume;
    int64_t fetch_block_ix; /* -1 = None */
    int32_t fetch_block_sub;

    /* window / queues (uop indices) */
    int32_t *window; int64_t win_head, win_len, win_cap;
    int32_t *iq, *iq_scratch; int64_t iq_len;
    int32_t *lq; int64_t lq_len;
    int32_t *sq; int64_t sq_len;
    int32_t *resolves, *res_scratch; int64_t res_len, res_cap;
    int64_t iq_min_ready;
    int64_t phys_used;
    int32_t reg_map[32];
    int64_t *alu_pipe_free; int64_t n_pipes;

    /* MGT LRU over dense template ids */
    int64_t *mgt; int64_t mgt_len, mgt_cap;

    /* memory hierarchy */
    Cache il1, dl1, l2;
    Tlb itlb, dtlb;
    /* stride prefetcher */
    int64_t *pf_last, *pf_stride;
    int8_t *pf_conf, *pf_valid;

    /* branch prediction */
    int8_t *bimodal, *gshare, *chooser;
    int64_t history;
    int64_t *btb_tag, *btb_target; int32_t *btb_cnt;
    int64_t *ras; int64_t ras_len;

    /* store sets */
    int64_t *ssit;
    int64_t *lfst; int64_t lfst_cap;
    int64_t ss_next_id;

    /* opt-in event tap: caller-owned fixed-capacity buffer. On overflow
     * emission stops (tap_ovf set) and the caller retries or falls back
     * to the Python observer loop; the simulation itself is unaffected. */
    int64_t *tap;
    int64_t tap_cap, tap_len;
    int64_t tap_flags;
    int tap_on, tap_ovf;

    /* Slack-Dynamic (NULL: no policy, nothing is ever disabled). A
     * disabled handle's expansion is generated item by item from its
     * row, so the pending queue is a (next item, item count) pair. */
    int64_t *pol, *pol_sites;
    int64_t pend_pos, pend_len;

    int64_t cycle;
} Sim;

/* ------------------------------------------------------------------ */
/* small dynamic-array helpers                                         */
/* ------------------------------------------------------------------ */

static int grow_pool(Sim *S) {
    if (S->pool_len < S->pool_cap) return 0;
    int64_t cap = S->pool_cap * 2;
    Uop *p = (Uop *)realloc(S->pool, (size_t)cap * sizeof(Uop));
    if (!p) return -1;
    S->pool = p; S->pool_cap = cap;
    return 0;
}

static int grow_edges(Sim *S) {
    if (S->edges_len < S->edges_cap) return 0;
    int64_t cap = S->edges_cap * 2;
    Edge *e = (Edge *)realloc(S->edges, (size_t)cap * sizeof(Edge));
    if (!e) return -1;
    S->edges = e; S->edges_cap = cap;
    return 0;
}

static int grow_resolves(Sim *S) {
    if (S->res_len < S->res_cap) return 0;
    int64_t cap = S->res_cap * 2;
    int32_t *a = (int32_t *)realloc(S->resolves, (size_t)cap * 4);
    int32_t *b = (int32_t *)realloc(S->res_scratch, (size_t)cap * 4);
    if (!a || !b) { if (a) S->resolves = a; if (b) S->res_scratch = b; return -1; }
    S->resolves = a; S->res_scratch = b; S->res_cap = cap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* event tap                                                           */
/* ------------------------------------------------------------------ */

/* Append one event; returns its word offset (for later patching) or -1
 * when the tap is off / just overflowed. */
static int64_t tap3(Sim *S, int64_t w0, int64_t a, int64_t b) {
    int64_t at = S->tap_len;
    if (at + 3 > S->tap_cap) {
        S->tap_ovf = 1;
        S->tap_on = 0;
        return -1;
    }
    S->tap[at] = w0;
    S->tap[at + 1] = a;
    S->tap[at + 2] = b;
    S->tap_len = at + 3;
    return at;
}

/* SlackCollector.on_consume's notion of a producer's ready time. */
static int64_t tap_ready_of(const Uop *p) {
    return p->out_actual_ready < BIGT ? p->out_actual_ready
                                      : p->store_resolve_cycle;
}

/* ------------------------------------------------------------------ */
/* caches / TLB (true-LRU, MRU-first arrays; mirrors caches.py)        */
/* ------------------------------------------------------------------ */

static int64_t cache_access(Cache *c, int64_t byte_addr) {
    int64_t line = byte_addr / c->line;
    int64_t s = line % c->sets;
    int64_t *ent = c->ent + s * c->assoc;
    int32_t n = ((int32_t *)c->cnt)[s];
    c->acc++;
    for (int32_t i = 0; i < n; i++) {
        if (ent[i] == line) {           /* hit: move to front */
            for (int32_t j = i; j > 0; j--) ent[j] = ent[j - 1];
            ent[0] = line;
            return 1;
        }
    }
    c->miss++;                          /* miss: insert MRU, evict LRU */
    int32_t m = n < (int32_t)c->assoc ? n + 1 : (int32_t)c->assoc;
    for (int32_t j = m - 1; j > 0; j--) ent[j] = ent[j - 1];
    ent[0] = line;
    c->cnt[s] = m;
    return 0;
}

static void cache_fill(Cache *c, int64_t byte_addr) {
    int64_t line = byte_addr / c->line;
    int64_t s = line % c->sets;
    int64_t *ent = c->ent + s * c->assoc;
    int32_t n = c->cnt[s];
    for (int32_t i = 0; i < n; i++)
        if (ent[i] == line) return;     /* resident: no LRU touch */
    int32_t m = n < (int32_t)c->assoc ? n + 1 : (int32_t)c->assoc;
    for (int32_t j = m - 1; j > 0; j--) ent[j] = ent[j - 1];
    ent[0] = line;
    c->cnt[s] = m;
}

static int64_t tlb_access(Tlb *t, int64_t byte_addr) {
    int64_t page = byte_addr >> 12;     /* PAGE_BYTES = 4096 */
    int64_t s = page % t->sets;
    int64_t *ent = t->page + s * t->assoc;
    int32_t n = t->cnt[s];
    t->acc++;
    for (int32_t i = 0; i < n; i++) {
        if (ent[i] == page) {
            for (int32_t j = i; j > 0; j--) ent[j] = ent[j - 1];
            ent[0] = page;
            return 0;
        }
    }
    t->miss++;
    int32_t m = n < (int32_t)t->assoc ? n + 1 : (int32_t)t->assoc;
    for (int32_t j = m - 1; j > 0; j--) ent[j] = ent[j - 1];
    ent[0] = page;
    t->cnt[s] = m;
    return t->penalty;
}

static int64_t miss_latency(Sim *S, int64_t byte_addr) {
    if (cache_access(&S->l2, byte_addr)) return S->l2.lat;
    return S->l2.lat + S->cfg[CFG_MEM_LATENCY];
}

static int64_t fetch_latency(Sim *S, int64_t pc) {
    int64_t byte_addr = pc * 4;
    int64_t lat = S->il1.lat + tlb_access(&S->itlb, byte_addr);
    if (!cache_access(&S->il1, byte_addr)) {
        lat += miss_latency(S, byte_addr);
        if (S->cfg[CFG_IL1_NLP]) {
            S->out[OUT_IL1_PF_ISSUED]++;
            int64_t next_addr = (byte_addr / S->il1.line + 1) * S->il1.line;
            cache_fill(&S->il1, next_addr);
            cache_fill(&S->l2, next_addr);
        }
    }
    return lat;
}

static int64_t load_latency_mem(Sim *S, int64_t word_addr, int64_t pc) {
    int64_t byte_addr = word_addr * 8;
    int64_t lat = S->dl1.lat + tlb_access(&S->dtlb, byte_addr);
    if (!cache_access(&S->dl1, byte_addr))
        lat += miss_latency(S, byte_addr);
    if (S->cfg[CFG_DL1_STRIDE] && pc >= 0) {
        int64_t ix = pc & S->cfg[CFG_STRIDE_MASK];
        if (!S->pf_valid[ix]) {
            S->pf_valid[ix] = 1;
            S->pf_last[ix] = word_addr;
            S->pf_stride[ix] = 0;
            S->pf_conf[ix] = 0;
        } else {
            int64_t new_stride = word_addr - S->pf_last[ix];
            int8_t conf;
            if (new_stride == S->pf_stride[ix] && S->pf_stride[ix] != 0)
                conf = S->pf_conf[ix] < 3 ? S->pf_conf[ix] + 1 : 3;
            else
                conf = 0;
            S->pf_last[ix] = word_addr;
            S->pf_stride[ix] = new_stride;
            S->pf_conf[ix] = conf;
            if (conf >= (int8_t)S->cfg[CFG_STRIDE_CONF]) {
                S->out[OUT_DL1_PF_ISSUED]++;
                int64_t target = (word_addr + new_stride) * 8;
                cache_fill(&S->dl1, target);
                cache_fill(&S->l2, target);
            }
        }
    }
    return lat;
}

static void store_touch(Sim *S, int64_t word_addr) {
    int64_t byte_addr = word_addr * 8;
    tlb_access(&S->dtlb, byte_addr);
    if (!cache_access(&S->dl1, byte_addr))
        miss_latency(S, byte_addr);
}

/* ------------------------------------------------------------------ */
/* branch prediction (mirrors branch.py)                               */
/* ------------------------------------------------------------------ */

static int64_t btb_lookup(Sim *S, int64_t pc) {
    int64_t s = pc % S->cfg[CFG_BTB_SETS];
    int64_t assoc = S->cfg[CFG_BTB_ASSOC];
    int64_t *tag = S->btb_tag + s * assoc;
    int64_t *tgt = S->btb_target + s * assoc;
    int32_t n = S->btb_cnt[s];
    for (int32_t i = 0; i < n; i++) {
        if (tag[i] == pc) {
            int64_t target = tgt[i];
            for (int32_t j = i; j > 0; j--) {
                tag[j] = tag[j - 1];
                tgt[j] = tgt[j - 1];
            }
            tag[0] = pc; tgt[0] = target;
            return target;
        }
    }
    return -1;
}

static void btb_update(Sim *S, int64_t pc, int64_t target) {
    int64_t s = pc % S->cfg[CFG_BTB_SETS];
    int64_t assoc = S->cfg[CFG_BTB_ASSOC];
    int64_t *tag = S->btb_tag + s * assoc;
    int64_t *tgt = S->btb_target + s * assoc;
    int32_t n = S->btb_cnt[s];
    int32_t found = -1;
    for (int32_t i = 0; i < n; i++)
        if (tag[i] == pc) { found = i; break; }
    if (found >= 0) {
        for (int32_t j = found; j < n - 1; j++) {
            tag[j] = tag[j + 1];
            tgt[j] = tgt[j + 1];
        }
        n--;
    }
    int32_t m = n < (int32_t)assoc ? n + 1 : (int32_t)assoc;
    for (int32_t j = m - 1; j > 0; j--) {
        tag[j] = tag[j - 1];
        tgt[j] = tgt[j - 1];
    }
    tag[0] = pc; tgt[0] = target;
    S->btb_cnt[s] = m;
}

static void ras_push(Sim *S, int64_t return_pc) {
    if (S->ras_len == S->cfg[CFG_RAS_ENTRIES]) {
        /* overflow discards the oldest entry */
        memmove(S->ras, S->ras + 1, (size_t)(S->ras_len - 1) * 8);
        S->ras_len--;
    }
    S->ras[S->ras_len++] = return_pc;
}

static int64_t ras_pop(Sim *S) {
    return S->ras_len ? S->ras[--S->ras_len] : -1;
}

static int predict_cond(Sim *S, int64_t pc, int taken, int64_t target) {
    S->out[OUT_COND_PRED]++;
    int64_t bim_ix = pc & S->cfg[CFG_BIM_MASK];
    int64_t gsh_ix = (pc ^ S->history) & S->cfg[CFG_GSH_MASK];
    int64_t cho_ix = pc & S->cfg[CFG_CHO_MASK];
    int bim = S->bimodal[bim_ix] >= 2;
    int gsh = S->gshare[gsh_ix] >= 2;
    int predicted = (S->chooser[cho_ix] >= 2) ? gsh : bim;
    /* train */
    int bim_correct = bim == taken;
    int gsh_correct = gsh == taken;
    if (gsh_correct != bim_correct) {
        int8_t c = S->chooser[cho_ix];
        S->chooser[cho_ix] = gsh_correct ? (c < 3 ? c + 1 : 3)
                                         : (c > 0 ? c - 1 : 0);
    }
    int8_t b = S->bimodal[bim_ix];
    S->bimodal[bim_ix] = taken ? (b < 3 ? b + 1 : 3) : (b > 0 ? b - 1 : 0);
    int8_t g = S->gshare[gsh_ix];
    S->gshare[gsh_ix] = taken ? (g < 3 ? g + 1 : 3) : (g > 0 ? g - 1 : 0);
    S->history = ((S->history << 1) | (taken ? 1 : 0)) & S->cfg[CFG_GSH_MASK];
    int correct = predicted == taken;
    if (correct && taken)
        correct = btb_lookup(S, pc) == target;
    btb_update(S, pc, target);
    if (!correct) S->out[OUT_COND_MISPRED]++;
    return correct;
}

static int predict_jump(Sim *S, int64_t pc, int is_call, int is_return,
                        int64_t target) {
    S->out[OUT_IND_PRED]++;
    int correct;
    if (is_return) {
        correct = ras_pop(S) == target;
    } else {
        correct = btb_lookup(S, pc) == target;
        btb_update(S, pc, target);
        if (is_call) ras_push(S, pc + 1);
    }
    if (!correct) S->out[OUT_IND_MISPRED]++;
    return correct;
}

/* ------------------------------------------------------------------ */
/* store sets (mirrors storesets.py)                                   */
/* ------------------------------------------------------------------ */

static int ss_grow(Sim *S, int64_t want) {
    if (want < S->lfst_cap) return 0;
    int64_t cap = S->lfst_cap * 2;
    while (cap <= want) cap *= 2;
    int64_t *p = (int64_t *)realloc(S->lfst, (size_t)cap * 8);
    if (!p) return -1;
    for (int64_t i = S->lfst_cap; i < cap; i++) p[i] = ABSENT;
    S->lfst = p; S->lfst_cap = cap;
    return 0;
}

static int64_t ss_rename_store(Sim *S, int64_t pc, int64_t seq) {
    int64_t set_id = S->ssit[pc & S->cfg[CFG_SS_MASK]];
    if (set_id < 0) return ABSENT;
    int64_t previous = S->lfst[set_id];
    S->lfst[set_id] = seq;
    return previous;
}

static int64_t ss_producer_store_for(Sim *S, int64_t pc) {
    int64_t set_id = S->ssit[pc & S->cfg[CFG_SS_MASK]];
    if (set_id < 0) return ABSENT;
    return S->lfst[set_id];
}

static void ss_retire_store(Sim *S, int64_t pc, int64_t seq) {
    int64_t set_id = S->ssit[pc & S->cfg[CFG_SS_MASK]];
    if (set_id >= 0 && S->lfst[set_id] == seq)
        S->lfst[set_id] = ABSENT;
}

static int ss_train_violation(Sim *S, int64_t load_pc, int64_t store_pc) {
    S->out[OUT_SS_VIOLATIONS]++;
    int64_t load_ix = load_pc & S->cfg[CFG_SS_MASK];
    int64_t store_ix = store_pc & S->cfg[CFG_SS_MASK];
    int64_t load_id = S->ssit[load_ix];
    int64_t store_id = S->ssit[store_ix];
    if (load_id < 0 && store_id < 0) {
        int64_t new_id = S->ss_next_id++;
        if (ss_grow(S, new_id)) return -1;
        S->ssit[load_ix] = new_id;
        S->ssit[store_ix] = new_id;
    } else if (load_id < 0) {
        S->ssit[load_ix] = store_id;
    } else if (store_id < 0) {
        S->ssit[store_ix] = load_id;
    } else {
        int64_t winner = load_id < store_id ? load_id : store_id;
        S->ssit[load_ix] = winner;
        S->ssit[store_ix] = winner;
    }
    return 0;
}

static void ss_flush(Sim *S) {
    for (int64_t i = 0; i < S->ss_next_id; i++) S->lfst[i] = ABSENT;
}

/* ------------------------------------------------------------------ */
/* MGT (LRU over dense template ids; mirrors _mgt_access)              */
/* ------------------------------------------------------------------ */

static int mgt_access(Sim *S, int64_t tpl) {
    for (int64_t i = 0; i < S->mgt_len; i++) {
        if (S->mgt[i] == tpl) {
            memmove(S->mgt + 1, S->mgt, (size_t)i * 8);
            S->mgt[0] = tpl;
            return 1;
        }
    }
    S->out[OUT_MGT_MISSES]++;
    int64_t m = S->mgt_len < S->mgt_cap ? S->mgt_len + 1 : S->mgt_cap;
    memmove(S->mgt + 1, S->mgt, (size_t)(m - 1) * 8);
    S->mgt[0] = tpl;
    S->mgt_len = m;
    return 0;
}

/* ------------------------------------------------------------------ */
/* uop construction (mirrors Uop.__init__)                             */
/* ------------------------------------------------------------------ */

/* A fresh pool slot holding Uop's class-level defaults (``*uix``
 * receives its index); NULL when the pool cannot grow. */
static Uop *alloc_uop(Sim *S, int64_t ix, int64_t sub, int64_t *uix) {
    if (grow_pool(S)) return NULL;
    *uix = S->pool_len++;
    Uop *u = &S->pool[*uix];
    u->ix = ix;
    u->sub = (int32_t)sub;
    u->age = (ix << 8) | (sub + 1);
    u->ready_at = 0;
    u->out_pred_ready = BIG;
    u->out_actual_ready = BIG;
    u->complete_cycle = BIG;
    u->resolve_cycle = BIG;
    u->store_resolve_cycle = BIG;
    u->forwarded_from = ABSENT;
    u->nprod = 0;
    u->pending = 0;
    u->prev_writer = -1;
    u->reg_waiters = -1;
    u->st_waiters = -1;
    u->kind = 0;
    u->issued = 0;
    u->squashed = 0;
    u->mg_serialized = 0;
    u->expansion_jump = 0;
    return u;
}

/* Uop.__init__'s singleton branch: port and memory pcs by opclass. */
static void classify_singleton(Uop *u, int64_t cls) {
    u->is_load = cls == OC_LOAD;
    u->is_store = cls == OC_STORE;
    u->port = CLASS_TO_PORT[cls];
    u->store_pc = u->is_store ? u->pc : -1;
    u->load_pc = u->is_load ? u->pc : -1;
}

static int64_t new_uop(Sim *S, int64_t ix) {
    const CTrace *T = S->T;
    int64_t uix;
    Uop *u = alloc_uop(S, ix, -1, &uix);
    if (!u) return -1;
    u->pc = T->pc[ix];
    u->addr = T->addr[ix];
    u->rd = T->rd[ix];
    u->latency = T->latency[ix];
    u->srcs = T->srcs + T->srcs_start[ix];
    u->nsrc = (int32_t)(T->srcs_start[ix + 1] - T->srcs_start[ix]);
    u->kind = T->kind[ix];
    u->opclass = (int8_t)T->opclass[ix];
    u->writes = T->rd[ix] >= 0;
    if (u->kind == 1) {
        int64_t hi = T->hidx[ix];
        int64_t flags = T->h_flags[hi];
        u->is_load = (flags >> 1) & 1;
        u->is_store = (flags >> 2) & 1;
        u->port = PORT_NONE;
        u->store_pc = u->is_store ? T->h_mem_pc[hi] : -1;
        u->load_pc = u->is_load ? T->h_mem_pc[hi] : -1;
    } else {
        classify_singleton(u, T->opclass[ix]);
    }
    return uix;
}

/* One item of a disabled handle's expansion (mirrors _ExpandedRecord). */
typedef struct {
    int64_t pc, opclass, latency, rd, addr, next_pc;
    const int64_t *srcs;
    int64_t nsrc;
    int8_t taken;
} XRec;

/* Item ``pos`` of the expansion of handle row ``ix`` (mirrors
 * _expand_disabled): outlined, a jump to the site's outlined body, the
 * constituents at their outlined pcs, and a jump back; inline (the
 * Ideal-* variants), the constituents alone at the handle's pc.
 * Constituents are never control transfers other than a last branch
 * (candidates.py _AGGREGABLE), so the two outlining jumps are the only
 * jump-class items and neither is a call or a return. */
static void expanded_item(const Sim *S, int64_t ix, int64_t pos, XRec *x) {
    const CTrace *T = S->T;
    int64_t hi = T->hidx[ix];
    int64_t n = T->h_cnt[hi];
    int64_t base = T->site_outlined_pc[T->h_site[hi]];
    int outlined = S->pol[PP_OUTLINED] != 0;
    int64_t k = outlined ? pos - 1 : pos;
    if (k < 0 || k >= n) {
        x->pc = k < 0 ? T->pc[ix] : base + n;
        x->opclass = OC_JUMP;
        x->latency = 1;
        x->rd = -1;
        x->addr = -1;
        x->srcs = NULL;
        x->nsrc = 0;
        x->taken = 1;
        x->next_pc = k < 0 ? base : T->pc[ix] + 1;
        return;
    }
    int64_t c = T->h_coff[hi] + k;
    int64_t pc = outlined ? base + k : T->pc[ix];
    x->pc = pc;
    x->opclass = T->c_opclass[c];
    x->latency = T->c_latency[c];
    x->rd = T->c_rd[c];
    x->srcs = T->c_srcs + T->c_srcs_start[c];
    x->nsrc = T->c_srcs_start[c + 1] - T->c_srcs_start[c];
    if (x->opclass == OC_BRANCH) {
        /* taken: straight to the handle's successor; not taken: fall
         * through (to the back-jump if outlined) */
        x->taken = T->c_taken[c];
        x->next_pc = x->taken ? T->next_pc[ix] : pc + 1;
        x->addr = -1;
    } else {
        x->taken = 0;
        x->next_pc = pc + 1;
        x->addr = T->c_addr[c];
    }
}

/* Uop.__init__ for an expanded (kind 0) record. */
static int64_t new_expanded_uop(Sim *S, int64_t ix, int64_t sub,
                                const XRec *x) {
    int64_t uix;
    Uop *u = alloc_uop(S, ix, sub, &uix);
    if (!u) return -1;
    u->pc = x->pc;
    u->addr = x->addr;
    u->rd = x->rd;
    u->latency = x->latency;
    u->srcs = x->srcs;
    u->nsrc = (int32_t)x->nsrc;
    u->opclass = (int8_t)x->opclass;
    u->writes = x->rd >= 0;
    classify_singleton(u, x->opclass);
    return uix;
}

/* ------------------------------------------------------------------ */
/* Slack-Dynamic monitor (mirrors SlackDynamicPolicy)                  */
/* ------------------------------------------------------------------ */

/* _state(): the site's entry, created on first touch. */
static int64_t *pol_state(Sim *S, int64_t site) {
    int64_t *st = S->pol_sites + site * PS_WORDS;
    if (st[PS_ENTRY] < 0) {
        st[PS_COUNTER] = 0;
        st[PS_DISABLED] = 0;
        st[PS_QUIET] = 0;
        st[PS_ENTRY] = ++S->pol[PP_SEQ];
    }
    return st;
}

/* enabled(): fetch-time query; counts quiet instances toward
 * resurrection. */
static int pol_enabled(Sim *S, int64_t site) {
    int64_t *st = pol_state(S, site);
    if (!st[PS_DISABLED]) return 1;
    st[PS_QUIET] += 1;
    if (st[PS_QUIET] >= S->pol[PP_RESURRECT]) {
        st[PS_DISABLED] = 0;
        st[PS_QUIET] = 0;
        st[PS_COUNTER] = S->pol[PP_THRESHOLD] - 1;
        S->pol[PP_RESURRECT_EVENTS]++;
        return 1;
    }
    return 0;
}

static void pol_harmful(Sim *S, int64_t site) {
    int64_t *st = pol_state(S, site);
    if (st[PS_DISABLED]) return;
    st[PS_COUNTER] += 1;
    if (st[PS_COUNTER] >= S->pol[PP_THRESHOLD]) {
        st[PS_DISABLED] = 1;
        st[PS_QUIET] = 0;
        S->pol[PP_DISABLE_EVENTS]++;
    }
}

static void pol_benign_issue(Sim *S, int64_t site) {
    int64_t *st = pol_state(S, site);
    if (st[PS_DISABLED] || st[PS_COUNTER] == 0) return;
    int64_t count = (st[PS_BENIGN_ENTRY] >= 0 ? st[PS_BENIGN] : 0) + 1;
    if (count >= S->pol[PP_DECAY]) {
        st[PS_COUNTER] -= 1;
        count = 0;
    }
    st[PS_BENIGN] = count;
    if (st[PS_BENIGN_ENTRY] < 0) st[PS_BENIGN_ENTRY] = ++S->pol[PP_SEQ];
}

static void pol_on_issue(Sim *S, int64_t site, int serialized, int sial) {
    int64_t mode = S->pol[PP_MODE];
    if (mode == POL_SIAL) {
        if (sial) pol_harmful(S, site);
        else pol_benign_issue(S, site);
        return;
    }
    if (mode == POL_DELAY) {
        if (serialized) pol_harmful(S, site);
        else pol_benign_issue(S, site);
        return;
    }
    /* full mode waits for propagation (on_consumer_delay) */
    if (!serialized) pol_benign_issue(S, site);
}

static void pol_on_consumer_delay(Sim *S, int64_t site) {
    if (S->pol[PP_MODE] == POL_FULL) pol_harmful(S, site);
}

/* ------------------------------------------------------------------ */
/* load latency with store-to-load forwarding (mirrors _load_latency)  */
/* ------------------------------------------------------------------ */

static int64_t load_latency(Sim *S, int64_t uix, int64_t addr, int64_t when,
                            int64_t pc) {
    Uop *pool = S->pool;
    Uop *u = &pool[uix];
    int64_t age = u->age;
    int64_t best = -1;
    for (int64_t i = 0; i < S->sq_len; i++) {
        Uop *st = &pool[S->sq[i]];
        if (st->age >= age || st->addr != addr) continue;
        if (st->store_resolve_cycle <= when) {
            if (best < 0 || st->age > pool[S->sq[best]].age) best = i;
        }
    }
    if (best >= 0) {
        Uop *st = &pool[S->sq[best]];
        u->forwarded_from = st->age;
        S->out[OUT_STORE_FORWARDS]++;
        if (S->tap_on)
            tap3(S, (st->ix << 4) | TAP_CONSUME, when - tap_ready_of(st),
                 u->ix);
        return S->cfg[CFG_FORWARD_LATENCY];
    }
    return load_latency_mem(S, addr, pc);
}

static void maybe_unblock_fetch(Sim *S, Uop *u) {
    if (S->fetch_block_ix == u->ix && S->fetch_block_sub == u->sub) {
        S->fetch_block_ix = -1;
        S->fetch_resume = u->resolve_cycle + 1;
        if (S->tap_on)
            tap3(S, (u->ix << 4) | TAP_REDIRECT, u->resolve_cycle, 0);
    }
}

/* ------------------------------------------------------------------ */
/* fetch (mirrors _fetch_stage, expanding disabled mini-graphs)        */
/* ------------------------------------------------------------------ */

static int fetch_stage(Sim *S) {
    const CTrace *T = S->T;
    int64_t cycle = S->cycle;
    int64_t width = S->cfg[CFG_WIDTH];
    int64_t cap = S->fb_cap;
    int64_t il1_lat = S->il1.lat;
    int64_t line_bytes = S->il1.line;
    int64_t fetched = 0;
    int64_t line = -1;
    while (fetched < width && S->fb_len < cap) {
        /* Peek the next record, expanding disabled mini-graphs. An
         * expansion belongs to the record at fetch_ix, which advances
         * once its last item is fetched. */
        int64_t ix = S->fetch_ix;
        int is_sub, is_mg;
        XRec x = {0};  /* read only when is_sub */
        if (S->pend_pos < S->pend_len) {
            is_sub = 1;
            is_mg = 0;
        } else {
            if (ix >= T->n) break;
            is_sub = 0;
            is_mg = T->kind[ix] == 1;
            if (is_mg && S->pol &&
                !pol_enabled(S, T->h_site[T->hidx[ix]])) {
                S->pend_pos = 0;
                S->pend_len = T->h_cnt[T->hidx[ix]] +
                              (S->pol[PP_OUTLINED] ? 2 : 0);
                S->out[OUT_MG_DISABLED]++;
                is_sub = 1;
                is_mg = 0;
            }
        }
        if (is_sub) expanded_item(S, ix, S->pend_pos, &x);
        int64_t pc = is_sub ? x.pc : T->pc[ix];
        int64_t rec_line = pc * 4 / line_bytes;
        if (line < 0) {
            int64_t lat = fetch_latency(S, pc);
            int64_t extra = lat - il1_lat;
            if (extra > 0) {
                S->fetch_resume = cycle + extra;
                S->out[OUT_ICACHE_STALL_CYCLES] += extra;
                S->out[OUT_ACT_FETCH_SLOTS] += fetched;
                return 0;
            }
            line = rec_line;
        } else if (rec_line != line) {
            break;
        }
        if (is_mg && !mgt_access(S, T->h_tpl[T->hidx[ix]])) {
            S->fetch_resume = cycle + S->cfg[CFG_MGT_FILL_LATENCY];
            break;
        }
        int64_t uix;
        if (is_sub) {
            int64_t sub = S->pend_pos++;
            if (S->pend_pos == S->pend_len) {
                S->fetch_ix++;
                S->pend_pos = S->pend_len = 0;
            }
            uix = new_expanded_uop(S, ix, sub, &x);
        } else {
            S->fetch_ix++;
            uix = new_uop(S, ix);
        }
        if (uix < 0) return -1;
        int64_t slot = (S->fb_head + S->fb_len) % S->fb_cap;
        S->fb_uop[slot] = (int32_t)uix;
        S->fb_cycle[slot] = cycle;
        S->fb_len++;
        fetched++;

        int taken, correct;
        if (is_mg) {
            if (!(T->h_flags[T->hidx[ix]] & 1)) continue;  /* no branch */
            taken = T->taken[ix];
            correct = predict_cond(S, pc, taken, T->next_pc[ix]);
        } else if (is_sub) {
            if (x.opclass == OC_BRANCH) {
                taken = x.taken;
                correct = predict_cond(S, pc, taken, x.next_pc);
            } else if (x.opclass == OC_JUMP) {
                S->pool[uix].expansion_jump = 1;
                taken = 1;
                correct = predict_jump(S, pc, 0, 0, x.next_pc);
            } else {
                continue;
            }
        } else {
            int64_t cls = T->opclass[ix];
            if (cls == OC_BRANCH) {
                taken = T->taken[ix];
                correct = predict_cond(S, pc, taken, T->next_pc[ix]);
            } else if (cls == OC_JUMP) {
                taken = 1;
                correct = predict_jump(S, pc,
                                       T->op[ix] == S->cfg[CFG_OP_JAL],
                                       T->op[ix] == S->cfg[CFG_OP_JR],
                                       T->next_pc[ix]);
            } else {
                continue;
            }
        }
        if (!correct) {
            S->fetch_block_ix = S->pool[uix].ix;
            S->fetch_block_sub = S->pool[uix].sub;
            break;
        }
        if (taken) break;               /* predicted-taken ends the group */
    }
    S->out[OUT_ACT_FETCH_SLOTS] += fetched;
    return 0;
}

/* ------------------------------------------------------------------ */
/* rename (mirrors _rename_stage)                                      */
/* ------------------------------------------------------------------ */

static int find_store(Sim *S, int64_t age) {
    for (int64_t i = 0; i < S->sq_len; i++)
        if (S->pool[S->sq[i]].age == age) return (int)S->sq[i];
    return -1;
}

static int rename_stage(Sim *S, int *worked) {
    const int64_t *cfg = S->cfg;
    int64_t cycle = S->cycle;
    int64_t width = cfg[CFG_WIDTH];
    int64_t front_delay = cfg[CFG_FRONT_DELAY];
    int64_t min_ready = S->iq_min_ready;
    int64_t renamed = 0, map_reads = 0, phys_allocs = 0;
    while (renamed < width && S->fb_len) {
        int64_t uix = S->fb_uop[S->fb_head];
        int64_t fetch_cycle = S->fb_cycle[S->fb_head];
        Uop *u = &S->pool[uix];
        if (fetch_cycle + front_delay > cycle) break;
        if (S->iq_len >= cfg[CFG_ISSUE_QUEUE] ||
            S->win_len >= cfg[CFG_ROB]) break;
        if (u->writes && S->phys_used >= cfg[CFG_RENAME_POOL]) break;
        if (u->is_load && S->lq_len >= cfg[CFG_LOAD_QUEUE]) break;
        if (u->is_store && S->sq_len >= cfg[CFG_STORE_QUEUE]) break;
        S->fb_head = (S->fb_head + 1) % S->fb_cap;
        S->fb_len--;

        int64_t ready_at = 0;
        int32_t pending = 0;
        const int64_t *srcs = u->srcs;
        for (int32_t j = 0; j < u->nsrc; j++) {
            int64_t src = srcs[j];
            if (src == 0) continue;
            int dup = 0;                /* dedupe repeated sources */
            for (int32_t k = 0; k < j; k++)
                if (srcs[k] == src) { dup = 1; break; }
            if (dup) continue;
            map_reads++;
            int32_t pidx = S->reg_map[src];
            if (pidx < 0) continue;
            Uop *p = &S->pool[pidx];
            u->prod[u->nprod++] = pidx;
            if (p->issued) {
                if (p->out_pred_ready > ready_at)
                    ready_at = p->out_pred_ready;
            } else {
                pending++;
                if (grow_edges(S)) return -1;
                Edge *e = &S->edges[S->edges_len];
                e->waiter = (int32_t)uix;
                e->next = p->reg_waiters;
                p->reg_waiters = (int32_t)S->edges_len++;
            }
        }
        if (u->writes) {
            phys_allocs++;
            u->prev_writer = S->reg_map[u->rd];
            S->reg_map[u->rd] = (int32_t)uix;
            S->phys_used++;
        }
        if (u->is_load) {
            S->lq[S->lq_len++] = (int32_t)uix;
            int64_t prev_age = ss_producer_store_for(S, u->load_pc);
            if (prev_age != ABSENT) {
                int sidx = find_store(S, prev_age);
                if (sidx >= 0) {
                    Uop *st = &S->pool[sidx];
                    if (st->issued) {
                        if (st->store_resolve_cycle > ready_at)
                            ready_at = st->store_resolve_cycle;
                    } else {
                        pending++;
                        if (grow_edges(S)) return -1;
                        Edge *e = &S->edges[S->edges_len];
                        e->waiter = (int32_t)uix;
                        e->next = st->st_waiters;
                        st->st_waiters = (int32_t)S->edges_len++;
                    }
                }
            }
        }
        if (u->is_store) {
            S->sq[S->sq_len++] = (int32_t)uix;
            int64_t prev_age = ss_rename_store(S, u->store_pc, u->age);
            if (prev_age != ABSENT) {
                int sidx = find_store(S, prev_age);
                if (sidx >= 0) {
                    Uop *st = &S->pool[sidx];
                    if (st->issued) {
                        if (st->store_resolve_cycle > ready_at)
                            ready_at = st->store_resolve_cycle;
                    } else {
                        pending++;
                        if (grow_edges(S)) return -1;
                        Edge *e = &S->edges[S->edges_len];
                        e->waiter = (int32_t)uix;
                        e->next = st->st_waiters;
                        st->st_waiters = (int32_t)S->edges_len++;
                    }
                }
            }
        }
        u->ready_at = ready_at;
        u->pending = pending;
        if (!pending && ready_at < min_ready) min_ready = ready_at;
        S->window[(S->win_head + S->win_len) % S->win_cap] = (int32_t)uix;
        S->win_len++;
        S->iq[S->iq_len++] = (int32_t)uix;
        renamed++;
    }
    if (renamed) {
        S->iq_min_ready = min_ready;
        S->out[OUT_ACT_RENAME_OPS] += renamed;
        S->out[OUT_ACT_IQ_INSERTIONS] += renamed;
        S->out[OUT_ACT_MAP_READS] += map_reads;
        S->out[OUT_ACT_PHYS_ALLOCS] += phys_allocs;
        *worked = 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* issue / execute (mirrors _issue_stage and _execute_handle)          */
/* ------------------------------------------------------------------ */

static int execute_handle(Sim *S, int64_t uix, int64_t pipe) {
    const CTrace *T = S->T;
    int64_t cycle = S->cycle;
    Uop *u = &S->pool[uix];
    u->issued = 1;
    int64_t ix = u->ix;
    int64_t hi = T->hidx[ix];
    /* ISSUE opens this instance's event window; b (out_actual_ready) is
     * patched below once the serial-execution sweep has computed it. */
    int64_t tap_at = -1;
    if (S->tap_on)
        tap_at = tap3(S, (ix << 4) | TAP_ISSUE, cycle, BIG);
    S->out[OUT_ACT_RF_READS] += u->nsrc;
    if (u->writes) S->out[OUT_ACT_RF_WRITES]++;
    int64_t regread = S->cfg[CFG_REGREAD];
    int64_t start = cycle;
    int64_t out_ready = cycle;
    int64_t coff = T->h_coff[hi];
    int64_t cnt = T->h_cnt[hi];
    int64_t outix = T->h_outix[hi];
    for (int64_t k = 0; k < cnt; k++) {
        int64_t cls = T->c_opclass[coff + k];
        int64_t lat;
        if (cls == OC_LOAD) {
            lat = load_latency(S, uix, T->c_addr[coff + k], start,
                               u->load_pc);
            u = &S->pool[uix];          /* pool may not move, but be safe */
            S->out[OUT_LOADS_ISSUED]++;
        } else if (cls == OC_STORE) {
            lat = 1;
            u->store_resolve_cycle = start + regread;
            if (grow_resolves(S)) return -1;
            S->resolves[S->res_len++] = (int32_t)uix;
        } else if (cls == OC_BRANCH) {
            lat = T->c_latency[coff + k];
            u->resolve_cycle = start + lat + regread;
            maybe_unblock_fetch(S, u);
        } else {
            lat = T->c_latency[coff + k];
        }
        if (k == outix) out_ready = start + lat;
        start += lat;                   /* rule #2: strictly serial */
    }
    int64_t total = start - cycle;
    u->complete_cycle = cycle + regread + total;
    if (u->writes) {
        u->out_actual_ready = out_ready;
        u->out_pred_ready = cycle + T->h_nominal[hi];
    }
    if ((T->h_flags[hi] & 1) && u->resolve_cycle == BIG)
        u->resolve_cycle = u->complete_cycle;
    S->alu_pipe_free[pipe] = cycle + 1 + (total - cnt);
    if (tap_at >= 0) S->tap[tap_at + 2] = u->out_actual_ready;

    /* Slack-Dynamic serialization detection: the handle issued exactly
     * when its last external operand arrived, and that operand feeds a
     * non-first constituent. */
    int64_t last_arrival = 0;
    int64_t last_consumer_ix = 0;
    const int64_t *ctab = T->site_consumer_ix + T->h_site[hi] * 32;
    for (int32_t i = 0; i < u->nprod; i++) {
        Uop *p = &S->pool[u->prod[i]];
        int64_t arrival = p->out_actual_ready;
        if (arrival >= last_arrival) {
            last_arrival = arrival;
            int64_t reg = p->rd;
            last_consumer_ix = (reg >= 0 && reg < 32) ? ctab[reg] : 0;
        }
    }
    int sial = u->nprod > 0 && last_consumer_ix > 0;
    int serialized = sial && cycle == last_arrival;
    u->mg_serialized = serialized;
    if (serialized) S->out[OUT_MG_SERIALIZED]++;
    if (S->pol) pol_on_issue(S, T->h_site[hi], serialized, sial);

    if (S->tap_on) {
        /* AttributionCollector.on_handle_issue: the first constituent's
         * singleton issue estimate is the max arrival over external
         * inputs with consumer index 0 (see _execute_handle in core.py). */
        int64_t first_ready = 0;
        for (int32_t i = 0; i < u->nprod; i++) {
            Uop *p = &S->pool[u->prod[i]];
            int64_t reg = p->rd;
            if (((reg >= 0 && reg < 32) ? ctab[reg] : 0) == 0) {
                int64_t arrival = p->out_actual_ready;
                if (arrival > first_ready) first_ready = arrival;
            }
        }
        tap3(S, (ix << 4) | TAP_HANDLE,
             (int64_t)serialized | ((int64_t)sial << 1),
             last_arrival - first_ready);
    }

    /* _notify_consumption (collector None): consumer-delay detection */
    int64_t na = -1;
    Uop *last = NULL;
    for (int32_t i = 0; i < u->nprod; i++) {
        Uop *p = &S->pool[u->prod[i]];
        if (S->tap_on)
            tap3(S, (p->ix << 4) | TAP_CONSUME, cycle - tap_ready_of(p), ix);
        if (p->out_actual_ready > na) {
            na = p->out_actual_ready;
            last = p;
        }
    }
    if (last && last->kind == 1 && last->mg_serialized && cycle == na) {
        S->out[OUT_MG_CONSUMER_DELAYS]++;
        if (S->pol) pol_on_consumer_delay(S, T->h_site[T->hidx[last->ix]]);
        if (S->tap_on)
            tap3(S, (last->ix << 4) | TAP_CDELAY, 0, 0);
    }
    return 0;
}

static int issue_stage(Sim *S, int *worked) {
    const CTrace *T = S->T;
    const int64_t *cfg = S->cfg;
    int64_t cycle = S->cycle;
    int64_t counts[5] = {0, 0, 0, 0, 0};
    int64_t ports[5];
    ports[0] = cfg[CFG_PORTS_SIMPLE];
    ports[1] = cfg[CFG_PORTS_COMPLEX];
    ports[2] = cfg[CFG_PORTS_LOAD];
    ports[3] = cfg[CFG_PORTS_STORE];
    ports[4] = cfg[CFG_WIDTH];
    int64_t mg_max_issue = cfg[CFG_MG_MAX_ISSUE];
    int64_t mg_max_mem_issue = cfg[CFG_MG_MAX_MEM_ISSUE];
    int64_t regread = cfg[CFG_REGREAD];
    int64_t dl1_lat = S->dl1.lat;
    int64_t width = cfg[CFG_WIDTH];
    int64_t total = 0, mg_issued = 0, mg_mem_issued = 0;
    int64_t loads_issued = 0, replays = 0, rf_reads = 0, rf_writes = 0;
    int32_t *kept = S->iq_scratch;
    int64_t kept_len = 0;
    int64_t next_ready = BIG;
    int64_t iq_len = S->iq_len;
    for (int64_t i = 0; i < iq_len; i++) {
        int32_t uix = S->iq[i];
        Uop *u = &S->pool[uix];
        if (total >= width) {
            memcpy(kept + kept_len, S->iq + i, (size_t)(iq_len - i) * 4);
            kept_len += iq_len - i;
            next_ready = cycle;
            break;
        }
        if (u->pending) { kept[kept_len++] = uix; continue; }
        int64_t t = u->ready_at;
        if (t > cycle) {
            kept[kept_len++] = uix;
            if (t < next_ready) next_ready = t;
            continue;
        }
        int is_handle = u->kind == 1;
        int64_t pipe = -1;
        if (is_handle) {
            if (mg_issued >= mg_max_issue) {
                kept[kept_len++] = uix;
                if (mg_issued == 0) next_ready = cycle;
                continue;
            }
            if ((u->is_load || u->is_store) &&
                mg_mem_issued >= mg_max_mem_issue) {
                kept[kept_len++] = uix;
                if (mg_mem_issued == 0) next_ready = cycle;
                continue;
            }
            for (int64_t p = 0; p < S->n_pipes; p++)
                if (S->alu_pipe_free[p] <= cycle) { pipe = p; break; }
            if (pipe < 0) {
                kept[kept_len++] = uix;
                if (S->n_pipes) {
                    int64_t m = S->alu_pipe_free[0];
                    for (int64_t p = 1; p < S->n_pipes; p++)
                        if (S->alu_pipe_free[p] < m)
                            m = S->alu_pipe_free[p];
                    if (m < next_ready) next_ready = m;
                } else {
                    next_ready = cycle;
                }
                continue;
            }
        } else {
            int8_t port = u->port;
            if (port != PORT_NONE && counts[port] >= ports[port]) {
                kept[kept_len++] = uix;
                if (counts[port] == 0) next_ready = cycle;
                continue;
            }
        }
        /* actual-readiness check (speculative wakeup verification) */
        int64_t actual = 0;
        Uop *last = NULL;
        for (int32_t p = 0; p < u->nprod; p++) {
            Uop *pr = &S->pool[u->prod[p]];
            if (pr->out_actual_ready > actual) {
                actual = pr->out_actual_ready;
                last = pr;
            }
        }
        if (actual > cycle) {           /* replay */
            u->ready_at = actual;
            replays++;
            total++;
            kept[kept_len++] = uix;
            continue;
        }
        total++;
        if (is_handle) {
            mg_issued++;
            if (u->is_load || u->is_store) mg_mem_issued++;
            if (execute_handle(S, uix, pipe)) return -1;
            u = &S->pool[uix];
        } else {
            counts[u->port]++;
            u->issued = 1;
            int64_t ix = u->ix;
            int64_t tap_at = -1;
            if (S->tap_on)
                tap_at = tap3(S, (ix << 4) | TAP_ISSUE, cycle, BIG);
            rf_reads += u->nsrc;
            if (u->writes) rf_writes++;
            if (u->is_load) {
                int64_t lat = load_latency(S, uix, u->addr, cycle, u->pc);
                u->out_pred_ready = cycle + dl1_lat;
                u->out_actual_ready = cycle + lat;
                u->complete_cycle = cycle + regread + lat;
                loads_issued++;
            } else if (u->is_store) {
                u->store_resolve_cycle = cycle + regread;
                u->complete_cycle = cycle + regread;
                if (grow_resolves(S)) return -1;
                S->resolves[S->res_len++] = uix;
            } else {
                int64_t cls = u->opclass;
                if (cls == OC_BRANCH || cls == OC_JUMP) {
                    int64_t resolve = cycle + u->latency + regread;
                    u->resolve_cycle = resolve;
                    u->complete_cycle = resolve;
                    if (u->rd >= 0) {   /* jal writes the return address */
                        u->out_pred_ready = cycle + u->latency;
                        u->out_actual_ready = cycle + u->latency;
                    }
                    if (S->fetch_block_ix >= 0) maybe_unblock_fetch(S, u);
                } else {
                    int64_t lat = u->latency;
                    u->out_pred_ready = cycle + lat;
                    u->out_actual_ready = cycle + lat;
                    u->complete_cycle = cycle + regread + lat;
                }
            }
            if (tap_at >= 0) S->tap[tap_at + 2] = u->out_actual_ready;
            if (S->tap_on && (S->tap_flags & TAPF_GLOBAL)) {
                /* Global-slack DP input: the committed instance's
                 * 3-level value-ready time and completion time
                 * (GlobalSlackCollector._value_ready / end_time). All
                 * three fields are final at issue for singletons. */
                int64_t vr = u->out_actual_ready;
                if (vr >= BIGT) vr = u->store_resolve_cycle;
                if (vr >= BIGT) vr = u->complete_cycle;
                tap3(S, (ix << 4) | TAP_VALUE, vr, u->complete_cycle);
            }
            if (S->tap_on) {
                for (int32_t p = 0; p < u->nprod; p++) {
                    Uop *pr = &S->pool[u->prod[p]];
                    tap3(S, (pr->ix << 4) | TAP_CONSUME,
                         cycle - tap_ready_of(pr), ix);
                }
            }
            /* consumer-delay detection (inline _notify_consumption) */
            if (last && last->kind == 1 && last->mg_serialized &&
                cycle == actual) {
                S->out[OUT_MG_CONSUMER_DELAYS]++;
                if (S->pol)
                    pol_on_consumer_delay(S, T->h_site[T->hidx[last->ix]]);
                if (S->tap_on)
                    tap3(S, (last->ix << 4) | TAP_CDELAY, 0, 0);
            }
        }
        /* push-based wakeup: walk registered waiters */
        int32_t e = u->reg_waiters;
        if (e >= 0) {
            int64_t tw = u->out_pred_ready;
            while (e >= 0) {
                Uop *w = &S->pool[S->edges[e].waiter];
                w->pending--;
                if (tw > w->ready_at) w->ready_at = tw;
                e = S->edges[e].next;
            }
        }
        if (u->is_store) {
            e = u->st_waiters;
            if (e >= 0) {
                int64_t tw = u->store_resolve_cycle;
                while (e >= 0) {
                    Uop *w = &S->pool[S->edges[e].waiter];
                    w->pending--;
                    if (tw > w->ready_at) w->ready_at = tw;
                    e = S->edges[e].next;
                }
            }
        }
    }
    if (total) next_ready = cycle;
    /* swap iq and scratch */
    int32_t *tmp = S->iq;
    S->iq = kept;
    S->iq_scratch = tmp;
    S->iq_len = kept_len;
    S->iq_min_ready = next_ready;
    if (total) {
        S->out[OUT_ACT_SELECT_SLOTS] += total;
        S->out[OUT_ACT_RF_READS] += rf_reads;
        S->out[OUT_ACT_RF_WRITES] += rf_writes;
        S->out[OUT_LOADS_ISSUED] += loads_issued;
        S->out[OUT_REPLAYS] += replays;
        *worked = 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* writeback / violations / flush (mirrors core.py)                    */
/* ------------------------------------------------------------------ */

static void flush_restart(Sim *S, Uop *victim) {
    int64_t restart_ix = victim->ix;
    /* squash youngest-first so the rename map rewinds correctly */
    while (S->win_len) {
        int64_t slot = (S->win_head + S->win_len - 1) % S->win_cap;
        Uop *u = &S->pool[S->window[slot]];
        if (u->ix < restart_ix) break;
        S->win_len--;
        u->squashed = 1;
        if (u->writes) {
            S->phys_used--;
            if (S->reg_map[u->rd] == S->window[slot])
                S->reg_map[u->rd] = u->prev_writer;
        }
    }
    for (int64_t i = 0; i < S->fb_len; i++) {
        int64_t slot = (S->fb_head + i) % S->fb_cap;
        S->pool[S->fb_uop[slot]].squashed = 1;
    }
    S->fb_len = 0;
    S->fb_head = 0;
    int64_t m = 0;
    for (int64_t i = 0; i < S->iq_len; i++)
        if (!S->pool[S->iq[i]].squashed) S->iq[m++] = S->iq[i];
    S->iq_len = m;
    S->iq_min_ready = 0;
    m = 0;
    for (int64_t i = 0; i < S->lq_len; i++)
        if (!S->pool[S->lq[i]].squashed) S->lq[m++] = S->lq[i];
    S->lq_len = m;
    m = 0;
    for (int64_t i = 0; i < S->sq_len; i++)
        if (!S->pool[S->sq[i]].squashed) S->sq[m++] = S->sq[i];
    S->sq_len = m;
    m = 0;
    for (int64_t i = 0; i < S->res_len; i++)
        if (!S->pool[S->resolves[i]].squashed)
            S->resolves[m++] = S->resolves[i];
    S->res_len = m;
    ss_flush(S);
    S->pend_pos = S->pend_len = 0;
    S->fetch_ix = restart_ix;
    S->fetch_block_ix = -1;
    S->fetch_resume = S->cycle + 1;
}

static int check_violation(Sim *S, int64_t six) {
    Uop *st = &S->pool[six];
    if (st->squashed) return 0;
    int64_t victim = -1;
    for (int64_t i = 0; i < S->lq_len; i++) {
        Uop *ld = &S->pool[S->lq[i]];
        if (ld->age <= st->age || !ld->issued) continue;
        if (ld->addr != st->addr) continue;
        if (ld->forwarded_from != ABSENT &&
            ld->forwarded_from >= st->age) continue;
        if (victim < 0 || ld->age < S->pool[victim].age)
            victim = S->lq[i];
    }
    if (victim < 0) return 0;
    S->out[OUT_ORDERING_VIOLATIONS]++;
    if (ss_train_violation(S, S->pool[victim].load_pc, st->store_pc))
        return -1;
    if (S->tap_on)
        tap3(S, (st->ix << 4) | TAP_CONSUME,
             S->cycle - tap_ready_of(st), S->pool[victim].ix);
    flush_restart(S, &S->pool[victim]);
    return 0;
}

static int writeback_stage(Sim *S, int *worked) {
    int64_t cycle = S->cycle;
    int any = 0;
    for (int64_t i = 0; i < S->res_len; i++) {
        if (S->pool[S->resolves[i]].store_resolve_cycle <= cycle) {
            any = 1;
            break;
        }
    }
    if (!any) return 0;
    int64_t pending_len = 0, resolved_len = 0;
    for (int64_t i = 0; i < S->res_len; i++) {
        int32_t six = S->resolves[i];
        Uop *st = &S->pool[six];
        if (st->squashed) continue;
        if (st->store_resolve_cycle <= cycle)
            S->res_scratch[resolved_len++] = six;
        else
            S->resolves[pending_len++] = six;
    }
    S->res_len = pending_len;
    for (int64_t i = 0; i < resolved_len; i++)
        if (check_violation(S, S->res_scratch[i])) return -1;
    *worked = 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* commit (mirrors _commit_stage)                                      */
/* ------------------------------------------------------------------ */

static void commit_stage(Sim *S) {
    const CTrace *T = S->T;
    int64_t cycle = S->cycle;
    int64_t to_commit = S->cfg[CFG_TO_COMMIT];
    int64_t width = S->cfg[CFG_WIDTH];
    int64_t committed = 0, original = 0, embedded = 0, handles = 0;
    int64_t outline_jumps = 0;
    while (committed < width && S->win_len) {
        int32_t uix = S->window[S->win_head];
        Uop *u = &S->pool[uix];
        if (u->complete_cycle + to_commit > cycle) break;
        S->win_head = (S->win_head + 1) % S->win_cap;
        S->win_len--;
        committed++;
        if (u->kind == 1) {
            int64_t n = T->h_cnt[T->hidx[u->ix]];
            original += n;
            embedded += n;
            handles++;
        } else if (u->expansion_jump) {
            outline_jumps++;
        } else {
            original++;
        }
        if (u->writes) {
            S->phys_used--;
            u->prev_writer = -1;
        }
        if (u->is_store) {
            store_touch(S, u->addr);
            ss_retire_store(S, u->store_pc, u->age);
            for (int64_t i = 0; i < S->sq_len; i++) {
                if (S->sq[i] == uix) {
                    memmove(S->sq + i, S->sq + i + 1,
                            (size_t)(S->sq_len - i - 1) * 4);
                    S->sq_len--;
                    break;
                }
            }
        }
        if (u->is_load) {
            for (int64_t i = 0; i < S->lq_len; i++) {
                if (S->lq[i] == uix) {
                    memmove(S->lq + i, S->lq + i + 1,
                            (size_t)(S->lq_len - i - 1) * 4);
                    S->lq_len--;
                    break;
                }
            }
        }
    }
    S->out[OUT_SLOTS_COMMITTED] += committed;
    S->out[OUT_ORIGINAL_COMMITTED] += original;
    S->out[OUT_EMBEDDED_COMMITTED] += embedded;
    S->out[OUT_HANDLES_COMMITTED] += handles;
    S->out[OUT_OUTLINE_JUMPS] += outline_jumps;
    S->out[OUT_ACT_COMMIT_SLOTS] += committed;
}

/* ------------------------------------------------------------------ */
/* warm-up (mirrors _warm)                                             */
/* ------------------------------------------------------------------ */

static void warm(Sim *S) {
    const CTrace *T = S->T;
    for (int64_t ix = 0; ix < T->n; ix++) {
        fetch_latency(S, T->pc[ix]);
        if (T->kind[ix] == 1) {
            int64_t hi = T->hidx[ix];
            int64_t coff = T->h_coff[hi];
            int64_t cnt = T->h_cnt[hi];
            for (int64_t k = 0; k < cnt; k++)
                if (T->c_addr[coff + k] >= 0)
                    load_latency_mem(S, T->c_addr[coff + k], -1);
        } else if (T->addr[ix] >= 0) {
            load_latency_mem(S, T->addr[ix], -1);
        }
    }
    for (int64_t ix = 0; ix < T->n; ix++)
        if (T->kind[ix] == 1)
            mgt_access(S, T->h_tpl[T->hidx[ix]]);
    S->out[OUT_MGT_MISSES] = 0;
    S->il1.acc = S->il1.miss = 0;
    S->dl1.acc = S->dl1.miss = 0;
    S->l2.acc = S->l2.miss = 0;
}

/* ------------------------------------------------------------------ */
/* next-event horizon (mirrors _next_event)                            */
/* ------------------------------------------------------------------ */

static int64_t next_event(Sim *S, int64_t cycle) {
    int64_t horizon = BIG;
    if (S->win_len) {
        int64_t t = S->pool[S->window[S->win_head]].complete_cycle +
                    S->cfg[CFG_TO_COMMIT];
        if (t < horizon) horizon = t;
    }
    for (int64_t i = 0; i < S->res_len; i++) {
        int64_t t = S->pool[S->resolves[i]].store_resolve_cycle;
        if (t < horizon) horizon = t;
    }
    if (S->iq_len) {
        int64_t t = S->iq_min_ready;
        if (t <= cycle) t = cycle + 1;
        if (t < horizon) horizon = t;
    }
    if (S->fb_len) {
        int64_t t = S->fb_cycle[S->fb_head] + S->cfg[CFG_FRONT_DELAY];
        if (cycle < t && t < horizon) horizon = t;
    }
    if (S->fetch_block_ix < 0 && S->fb_len < S->fb_cap &&
        S->fetch_ix < S->T->n) {
        int64_t t = S->fetch_resume;
        if (cycle < t && t < horizon) horizon = t;
    }
    return horizon;
}

/* ------------------------------------------------------------------ */
/* setup / teardown / main loop                                        */
/* ------------------------------------------------------------------ */

static void *zalloc(size_t n) { return calloc(1, n); }

static int cache_init(Cache *c, int64_t sets, int64_t assoc, int64_t line,
                      int64_t lat) {
    c->sets = sets; c->assoc = assoc; c->line = line; c->lat = lat;
    c->acc = c->miss = 0;
    c->ent = (int64_t *)zalloc((size_t)(sets * assoc) * 8);
    c->cnt = (int32_t *)zalloc((size_t)sets * 4);
    return (c->ent && c->cnt) ? 0 : -1;
}

static int tlb_init(Tlb *t, int64_t sets, int64_t assoc, int64_t penalty) {
    t->sets = sets; t->assoc = assoc; t->penalty = penalty;
    t->acc = t->miss = 0;
    t->page = (int64_t *)zalloc((size_t)(sets * assoc) * 8);
    t->cnt = (int32_t *)zalloc((size_t)sets * 4);
    return (t->page && t->cnt) ? 0 : -1;
}

static void sim_free(Sim *S) {
    free(S->pool); free(S->edges);
    free(S->fb_uop); free(S->fb_cycle);
    free(S->window); free(S->iq); free(S->iq_scratch);
    free(S->lq); free(S->sq); free(S->resolves); free(S->res_scratch);
    free(S->alu_pipe_free); free(S->mgt);
    free(S->il1.ent); free(S->il1.cnt);
    free(S->dl1.ent); free(S->dl1.cnt);
    free(S->l2.ent); free(S->l2.cnt);
    free(S->itlb.page); free(S->itlb.cnt);
    free(S->dtlb.page); free(S->dtlb.cnt);
    free(S->pf_last); free(S->pf_stride); free(S->pf_conf);
    free(S->pf_valid);
    free(S->bimodal); free(S->gshare); free(S->chooser);
    free(S->btb_tag); free(S->btb_target); free(S->btb_cnt);
    free(S->ras); free(S->ssit); free(S->lfst);
}

static int64_t run_core(const int64_t *cfg, const CTrace *T, int64_t *out,
                        int64_t max_cycles, int64_t *tap_buf,
                        int64_t tap_cap, int64_t *tap_meta,
                        int64_t tap_flags, int64_t *pol,
                        int64_t *pol_sites) {
    Sim sim;
    Sim *S = &sim;
    memset(S, 0, sizeof(Sim));
    S->cfg = cfg;
    S->T = T;
    S->out = out;
    S->tap = tap_buf;
    S->tap_cap = tap_cap;
    S->tap_flags = tap_flags;
    S->tap_on = tap_buf != NULL && tap_cap > 0;
    S->pol = pol;
    S->pol_sites = pol_sites;
    memset(out, 0, OUT_COUNT * 8);

    int64_t n = T->n;
    S->pool_cap = (n > 64 ? n : 64) + 64;
    S->pool = (Uop *)malloc((size_t)S->pool_cap * sizeof(Uop));
    S->edges_cap = 4 * S->pool_cap;
    S->edges = (Edge *)malloc((size_t)S->edges_cap * sizeof(Edge));
    S->fb_cap = cfg[CFG_FETCH_BUFFER_CAP];
    S->fb_uop = (int32_t *)malloc((size_t)S->fb_cap * 4);
    S->fb_cycle = (int64_t *)malloc((size_t)S->fb_cap * 8);
    S->win_cap = cfg[CFG_ROB] + 1;
    S->window = (int32_t *)malloc((size_t)S->win_cap * 4);
    S->iq = (int32_t *)malloc((size_t)(cfg[CFG_ISSUE_QUEUE] + 1) * 4);
    S->iq_scratch = (int32_t *)malloc((size_t)(cfg[CFG_ISSUE_QUEUE] + 1) * 4);
    S->lq = (int32_t *)malloc((size_t)(cfg[CFG_LOAD_QUEUE] + 1) * 4);
    S->sq = (int32_t *)malloc((size_t)(cfg[CFG_STORE_QUEUE] + 1) * 4);
    S->res_cap = 64;
    S->resolves = (int32_t *)malloc((size_t)S->res_cap * 4);
    S->res_scratch = (int32_t *)malloc((size_t)S->res_cap * 4);
    S->n_pipes = cfg[CFG_MG_ALU_PIPES];
    S->alu_pipe_free = (int64_t *)zalloc((size_t)(S->n_pipes + 1) * 8);
    S->mgt_cap = cfg[CFG_MGT_ENTRIES];
    S->mgt = (int64_t *)malloc((size_t)(S->mgt_cap + 1) * 8);
    for (int i = 0; i < 32; i++) S->reg_map[i] = -1;
    S->fetch_block_ix = -1;
    S->fetch_block_sub = 0;

    int fail = !S->pool || !S->edges || !S->fb_uop || !S->fb_cycle ||
               !S->window || !S->iq || !S->iq_scratch || !S->lq || !S->sq ||
               !S->resolves || !S->res_scratch || !S->alu_pipe_free ||
               !S->mgt;
    if (cache_init(&S->il1, cfg[CFG_IL1_SETS], cfg[CFG_IL1_ASSOC],
                   cfg[CFG_IL1_LINE], cfg[CFG_IL1_LAT])) fail = 1;
    if (cache_init(&S->dl1, cfg[CFG_DL1_SETS], cfg[CFG_DL1_ASSOC],
                   cfg[CFG_DL1_LINE], cfg[CFG_DL1_LAT])) fail = 1;
    if (cache_init(&S->l2, cfg[CFG_L2_SETS], cfg[CFG_L2_ASSOC],
                   cfg[CFG_L2_LINE], cfg[CFG_L2_LAT])) fail = 1;
    if (tlb_init(&S->itlb, cfg[CFG_ITLB_SETS], cfg[CFG_ITLB_ASSOC],
                 cfg[CFG_TLB_MISS_PENALTY])) fail = 1;
    if (tlb_init(&S->dtlb, cfg[CFG_DTLB_SETS], cfg[CFG_DTLB_ASSOC],
                 cfg[CFG_TLB_MISS_PENALTY])) fail = 1;
    int64_t pf_n = cfg[CFG_STRIDE_MASK] + 1;
    S->pf_last = (int64_t *)zalloc((size_t)pf_n * 8);
    S->pf_stride = (int64_t *)zalloc((size_t)pf_n * 8);
    S->pf_conf = (int8_t *)zalloc((size_t)pf_n);
    S->pf_valid = (int8_t *)zalloc((size_t)pf_n);
    int64_t bim_n = cfg[CFG_BIM_MASK] + 1;
    int64_t gsh_n = cfg[CFG_GSH_MASK] + 1;
    int64_t cho_n = cfg[CFG_CHO_MASK] + 1;
    S->bimodal = (int8_t *)malloc((size_t)bim_n);
    S->gshare = (int8_t *)malloc((size_t)gsh_n);
    S->chooser = (int8_t *)malloc((size_t)cho_n);
    int64_t btb_n = cfg[CFG_BTB_SETS] * cfg[CFG_BTB_ASSOC];
    S->btb_tag = (int64_t *)zalloc((size_t)btb_n * 8);
    S->btb_target = (int64_t *)zalloc((size_t)btb_n * 8);
    S->btb_cnt = (int32_t *)zalloc((size_t)cfg[CFG_BTB_SETS] * 4);
    S->ras = (int64_t *)malloc((size_t)(cfg[CFG_RAS_ENTRIES] + 1) * 8);
    int64_t ss_n = cfg[CFG_SS_MASK] + 1;
    S->ssit = (int64_t *)malloc((size_t)ss_n * 8);
    S->lfst_cap = 64;
    S->lfst = (int64_t *)malloc((size_t)S->lfst_cap * 8);
    if (!S->pf_last || !S->pf_stride || !S->pf_conf || !S->pf_valid ||
        !S->bimodal || !S->gshare || !S->chooser || !S->btb_tag ||
        !S->btb_target || !S->btb_cnt || !S->ras || !S->ssit || !S->lfst)
        fail = 1;
    if (fail) { sim_free(S); return RC_NOMEM; }
    memset(S->bimodal, 2, (size_t)bim_n);
    memset(S->gshare, 2, (size_t)gsh_n);
    memset(S->chooser, 2, (size_t)cho_n);
    for (int64_t i = 0; i < ss_n; i++) S->ssit[i] = -1;
    for (int64_t i = 0; i < S->lfst_cap; i++) S->lfst[i] = ABSENT;

    if (cfg[CFG_WARM]) warm(S);

    int64_t cycle = 0;
    int64_t last_progress = 0, last_committed = 0;
    int64_t iq_occupancy = 0, window_occupancy = 0, cycles_seen = 0;
    int64_t front_delay = cfg[CFG_FRONT_DELAY];
    int64_t to_commit = cfg[CFG_TO_COMMIT];
    int64_t rc = RC_OK;

    for (;;) {
        /* (a pending expansion belongs to the record at fetch_ix < n) */
        if (S->fetch_ix >= n && !S->fb_len && !S->win_len) break;
        cycle++;
        S->cycle = cycle;
        if (cycle > max_cycles) { rc = RC_BUDGET; break; }
        int worked = 0;
        if (S->win_len &&
            S->pool[S->window[S->win_head]].complete_cycle + to_commit <=
                cycle) {
            commit_stage(S);
            worked = 1;
        }
        if (S->res_len) {
            if (writeback_stage(S, &worked)) { rc = RC_NOMEM; break; }
        }
        if (S->iq_len && S->iq_min_ready <= cycle) {
            if (issue_stage(S, &worked)) { rc = RC_NOMEM; break; }
        }
        if (S->fb_len && S->fb_cycle[S->fb_head] + front_delay <= cycle) {
            if (rename_stage(S, &worked)) { rc = RC_NOMEM; break; }
        }
        if (S->fetch_block_ix >= 0) {
            out[OUT_FETCH_CYCLES_BLOCKED]++;
        } else if (cycle >= S->fetch_resume && S->fb_len < S->fb_cap &&
                   S->fetch_ix < n) {
            if (fetch_stage(S)) { rc = RC_NOMEM; break; }
            worked = 1;
        }
        iq_occupancy += S->iq_len;
        window_occupancy += S->win_len;
        cycles_seen++;
        if (out[OUT_ORIGINAL_COMMITTED] != last_committed) {
            last_committed = out[OUT_ORIGINAL_COMMITTED];
            last_progress = cycle;
        } else if (cycle - last_progress > 1000000) {
            rc = RC_NO_COMMIT;
            break;
        }
        if (worked) continue;
        /* quiet cycle: jump the clock to the next event */
        int64_t target = next_event(S, cycle) - 1;
        int64_t dead = last_progress + 1000001;
        if (target >= dead) {
            if (dead > max_cycles) {
                cycle = max_cycles + 1;
                S->cycle = cycle;
                rc = RC_BUDGET;
            } else {
                cycle = dead;
                S->cycle = cycle;
                rc = RC_NO_COMMIT;
            }
            break;
        }
        if (target > max_cycles) {
            cycle = max_cycles + 1;
            S->cycle = cycle;
            rc = RC_BUDGET;
            break;
        }
        int64_t skipped = target - cycle;
        if (skipped > 0) {
            if (S->fetch_block_ix >= 0)
                out[OUT_FETCH_CYCLES_BLOCKED] += skipped;
            iq_occupancy += skipped * S->iq_len;
            window_occupancy += skipped * S->win_len;
            cycles_seen += skipped;
            out[OUT_CYCLES_SKIPPED] += skipped;
            cycle = target;
            S->cycle = cycle;
        }
    }

    out[OUT_CYCLES] = S->cycle;
    out[OUT_ACT_IQ_OCCUPANCY] = iq_occupancy;
    out[OUT_ACT_WINDOW_OCCUPANCY] = window_occupancy;
    out[OUT_ACT_CYCLES] = cycles_seen;
    out[OUT_IL1_ACC] = S->il1.acc;
    out[OUT_IL1_MISS] = S->il1.miss;
    out[OUT_DL1_ACC] = S->dl1.acc;
    out[OUT_DL1_MISS] = S->dl1.miss;
    out[OUT_L2_ACC] = S->l2.acc;
    out[OUT_L2_MISS] = S->l2.miss;
    out[OUT_ITLB_ACC] = S->itlb.acc;
    out[OUT_ITLB_MISS] = S->itlb.miss;
    out[OUT_DTLB_ACC] = S->dtlb.acc;
    out[OUT_DTLB_MISS] = S->dtlb.miss;
    out[OUT_DEAD_CYCLE] = S->cycle;
    out[OUT_DEAD_IX] = S->fetch_ix;
    out[OUT_DEAD_WINDOW] = S->win_len;
    if (tap_meta) {
        tap_meta[0] = S->tap_len;
        tap_meta[1] = S->tap_ovf;
    }
    sim_free(S);
    return rc;
}

int64_t repro_run(const int64_t *cfg, const CTrace *T, int64_t *out,
                  int64_t max_cycles) {
    return run_core(cfg, T, out, max_cycles, NULL, 0, NULL, 0, NULL, NULL);
}

/* Same simulation under the Slack-Dynamic monitor. ``pol`` (PP_WORDS)
 * and ``pol_sites`` (PS_WORDS per CTrace site) carry the policy's
 * parameters and starting state in and its final state out, also on a
 * simulated deadlock (RC_BUDGET / RC_NO_COMMIT), where the Python loop
 * raises with its policy state as the kernel left it. On RC_NOMEM the
 * arrays are partly updated and the caller discards them. */
int64_t repro_run_policy(const int64_t *cfg, const CTrace *T, int64_t *out,
                         int64_t max_cycles, int64_t *pol,
                         int64_t *pol_sites) {
    return run_core(cfg, T, out, max_cycles, NULL, 0, NULL, 0, pol,
                    pol_sites);
}

/* Same simulation with the event tap armed. ``tap_meta[0]`` receives the
 * number of int64 words written, ``tap_meta[1]`` the overflow flag; on
 * overflow the log is truncated but the simulated results are still
 * exact (emission just stops). ``tap_flags`` selects optional record
 * families (TAPF_GLOBAL -> TAP_VALUE). */
int64_t repro_run_tap(const int64_t *cfg, const CTrace *T, int64_t *out,
                      int64_t max_cycles, int64_t *tap_buf,
                      int64_t tap_cap, int64_t *tap_meta,
                      int64_t tap_flags) {
    return run_core(cfg, T, out, max_cycles, tap_buf, tap_cap, tap_meta,
                    tap_flags, NULL, NULL);
}

/* ------------------------------------------------------------------ */
/* batched dispatch: N independent points per native call              */
/* ------------------------------------------------------------------ */

/* One (config, trace, result, tap) descriptor. ``run_core`` is fully
 * self-contained (it allocates and frees its own Sim, touches no
 * globals, and reads the CTrace columns read-only), so points are
 * embarrassingly parallel: one marshalled trace may be shared by many
 * points, and ctypes releases the GIL for the whole call. Mirrors
 * ckern._CBatchPoint field for field. */
typedef struct {
    const int64_t *cfg;
    const CTrace *trace;
    int64_t *out;
    int64_t max_cycles;
    int64_t *tap;
    int64_t tap_cap;
    int64_t tap_flags;
    int64_t status;      /* out: RC_* for this point */
    int64_t tap_len;     /* out: valid tap words */
    int64_t tap_ovf;     /* out: tap overflow flag */
} BatchPoint;

typedef struct {
    BatchPoint *pts;
    int64_t n;
    volatile int64_t next;  /* atomic work cursor */
} BatchQueue;

static void batch_drain(BatchQueue *q) {
    for (;;) {
        int64_t i = __sync_fetch_and_add(&q->next, 1);
        if (i >= q->n) break;
        BatchPoint *p = &q->pts[i];
        int64_t meta[2] = {0, 0};
        p->status = run_core(p->cfg, p->trace, p->out, p->max_cycles,
                             p->tap, p->tap_cap, meta, p->tap_flags,
                             NULL, NULL);
        p->tap_len = meta[0];
        p->tap_ovf = meta[1];
    }
}

#ifdef REPRO_THREADS
#include <pthread.h>

#define BATCH_MAX_THREADS 64

static void *batch_worker(void *arg) {
    batch_drain((BatchQueue *)arg);
    return NULL;
}
#endif

/* Run every point; each gets its own status/tap metadata so a bad point
 * (budget, deadlock, tap overflow, allocation failure) degrades only
 * itself. Returns the number of worker threads actually used (>= 1):
 * builds without pthread support, thread-creation failure, and
 * ``threads <= 1`` all degrade to the serial in-call loop. */
int64_t repro_run_batch(BatchPoint *pts, int64_t n, int64_t threads) {
    BatchQueue q;
    q.pts = pts;
    q.n = n;
    q.next = 0;
    if (n <= 0) return 1;
#ifdef REPRO_THREADS
    if (threads > n) threads = n;
    if (threads > BATCH_MAX_THREADS) threads = BATCH_MAX_THREADS;
    if (threads > 1) {
        pthread_t tids[BATCH_MAX_THREADS];
        int64_t spawned = 0;
        for (int64_t t = 0; t < threads - 1; t++) {
            if (pthread_create(&tids[spawned], NULL, batch_worker, &q))
                break;
            spawned++;
        }
        batch_drain(&q);
        for (int64_t t = 0; t < spawned; t++)
            pthread_join(tids[t], NULL);
        return spawned + 1;
    }
#else
    (void)threads;
#endif
    batch_drain(&q);
    return 1;
}

/* First pass of the slack-profile decode: fold the O(events) log into
 * per-static-record cells so the Python side only walks the O(n)
 * committed prefix. Exactly mirrors the reference loop in
 * SlackCollector.ingest_ckern_tap — CONSUME takes the min sample into
 * the producer's open cell, ISSUE re-opens the cell (squash orphaning)
 * and records issue/ready cycles, REDIRECT zeroes the cell. The
 * ``none`` sentinel (1<<62) matches the Python decoder. */
void repro_tap_fold(const int64_t *events, int64_t n_words,
                    int64_t *cells, int64_t *issue_cycle,
                    int64_t *out_ready) {
    for (int64_t i = 0; i + 2 < n_words; i += 3) {
        int64_t w0 = events[i];
        int64_t tag = w0 & 15;
        int64_t ix = w0 >> 4;
        if (tag == TAP_CONSUME) {
            int64_t a = events[i + 1];
            if (a < cells[ix]) cells[ix] = a;
        } else if (tag == TAP_ISSUE) {
            cells[ix] = ((int64_t)1) << 62;
            issue_cycle[ix] = events[i + 1];
            out_ready[ix] = events[i + 2];
        } else if (tag == TAP_REDIRECT) {
            cells[ix] = 0;
        }
        /* HANDLE / CDELAY belong to the attribution decode. */
    }
}

/* ------------------------------------------------------------------ */
/* trace fold: singleton arena + plan site table -> folded arena       */
/* ------------------------------------------------------------------ */
/* Port of minigraph/transform.py ``fold_records`` fused with the handle
 * half of ckern.marshal: one call turns the singleton trace's columns
 * into the complete folded CTrace, column for column what
 * ``marshal(fold_records(trace, plan))`` builds in Python. Singletons get
 * post-outlining pcs; each dynamic instance of a selected site becomes
 * one handle row plus its constituent rows (with their sources and
 * branch outcomes, which a Slack-Dynamic expansion reads); per-site
 * consumer tables, outlined pcs and site ids are dense in
 * first-appearance order (marshal's ``site_ids``).
 *
 * ``sites`` holds FS_WORDS int64 per plan site (layout below); ``ext``
 * holds each site's handle source registers (``ext_inputs`` order) at
 * FS_SRC_OFF and its (reg, consumer) pairs (``input_consumer_ix``
 * order) at FS_CONS_OFF. Every index read is bounds-checked: a pc or
 * next_pc outside ``pc_map``, a malformed site row, or a handle wider
 * than MAXP sources returns RC_UNSUPPORTED; a site instance whose last
 * constituent is not ``end - 1`` (fold_records' assertion) returns
 * RC_LAYOUT. Either way the caller runs the Python reference fold.
 *
 * The arena lives in one malloc block sized exactly by a counting pass
 * (``*block`` receives it; release with repro_fold_free). D's columns
 * point into it and are never written after this call returns. */
enum {
    FS_START, FS_END, FS_HANDLE_PC, FS_TPL, FS_NOMINAL, FS_OUTIX,
    FS_FLAGS, FS_MEM_PC, FS_OUT_REG, FS_SRC_OFF, FS_N_SRC, FS_CONS_OFF,
    FS_N_CONS, FS_OUTLINED_PC, FS_SITE_ID, FS_WORDS
};

int64_t repro_fold(const CTrace *S, const int64_t *pc_map,
                   int64_t n_static, const int64_t *sites, int64_t n_sites,
                   const int64_t *ext, int64_t n_ext, CTrace *D,
                   void **block) {
    int64_t n = S->n;
    *block = NULL;
    if (n < 0 || n_static <= 0 || n_sites < 0) return RC_UNSUPPORTED;
    int64_t *site_at = (int64_t *)malloc((size_t)n_static * 8);
    int64_t *dense = (int64_t *)malloc((size_t)(n_sites ? n_sites : 1) * 8);
    int64_t rc = RC_NOMEM;
    if (!site_at || !dense) goto done;
    rc = RC_UNSUPPORTED;
    for (int64_t p = 0; p < n_static; p++) site_at[p] = -1;
    for (int64_t s = 0; s < n_sites; s++) {
        const int64_t *st = sites + s * FS_WORDS;
        if (st[FS_START] < 0 || st[FS_END] <= st[FS_START] ||
            st[FS_END] > n_static || st[FS_N_SRC] < 0 ||
            st[FS_SRC_OFF] < 0 || st[FS_SRC_OFF] + st[FS_N_SRC] > n_ext ||
            st[FS_N_CONS] < 0 || st[FS_CONS_OFF] < 0 ||
            st[FS_CONS_OFF] + 2 * st[FS_N_CONS] > n_ext)
            goto done;
        site_at[st[FS_START]] = s;   /* later sites win, as in the dict */
        dense[s] = -1;
    }
    if (S->srcs_start[0] != 0) goto done;

    /* Pass 1: validate the walk and count every column exactly. */
    int64_t n_out = 0, n_srcs = 0, n_h = 0, n_c = 0, n_used = 0;
    int64_t n_csrcs = 0;
    for (int64_t i = 0; i < n;) {
        int64_t p = S->pc[i];
        if (p < 0 || p >= n_static || S->kind[i]) goto done;
        int64_t s = site_at[p];
        int64_t last = i;
        if (s < 0) {
            int64_t w = S->srcs_start[i + 1] - S->srcs_start[i];
            if (w < 0 || w > MAXP) goto done;
            n_srcs += w;
        } else {
            const int64_t *st = sites + s * FS_WORDS;
            int64_t size = st[FS_END] - st[FS_START];
            last = i + size - 1;
            if (last >= n || S->pc[last] != st[FS_END] - 1) {
                rc = RC_LAYOUT;
                goto done;
            }
            if (st[FS_N_SRC] > MAXP) goto done;
            for (int64_t j = i; j <= last; j++) {
                int64_t w = S->srcs_start[j + 1] - S->srcs_start[j];
                if (w < 0 || w > MAXP) goto done;
                n_csrcs += w;
            }
            if (dense[s] < 0) dense[s] = n_used++;
            n_srcs += st[FS_N_SRC];
            n_h++;
            n_c += size;
        }
        if (S->next_pc[last] < 0) goto done;
        n_out++;
        i = last + 1;
    }

    /* One block: int64 columns first, then the int8 flag columns.
     * 9 n_out-long int64 columns (srcs_start has one more word), 5
     * n_c-long ones (c_srcs_start has one more word). */
    size_t words = (size_t)(9 * n_out + 1 + n_srcs + 8 * n_h + 5 * n_c +
                            1 + n_csrcs + 34 * n_used);
    char *blk = (char *)malloc(words * 8 + (size_t)(2 * n_out + n_c) + 8);
    if (!blk) { rc = RC_NOMEM; goto done; }
    int64_t *w = (int64_t *)blk;
    int64_t *pc = w; w += n_out;
    int64_t *op = w; w += n_out;
    int64_t *opclass = w; w += n_out;
    int64_t *latency = w; w += n_out;
    int64_t *rd = w; w += n_out;
    int64_t *addr = w; w += n_out;
    int64_t *next_pc = w; w += n_out;
    int64_t *hidx = w; w += n_out;
    int64_t *srcs_start = w; w += n_out + 1;
    int64_t *srcs = w; w += n_srcs;
    int64_t *h_tpl = w; w += n_h;
    int64_t *h_nominal = w; w += n_h;
    int64_t *h_outix = w; w += n_h;
    int64_t *h_flags = w; w += n_h;
    int64_t *h_mem_pc = w; w += n_h;
    int64_t *h_site = w; w += n_h;
    int64_t *h_coff = w; w += n_h;
    int64_t *h_cnt = w; w += n_h;
    int64_t *c_opclass = w; w += n_c;
    int64_t *c_latency = w; w += n_c;
    int64_t *c_addr = w; w += n_c;
    int64_t *c_rd = w; w += n_c;
    int64_t *c_srcs_start = w; w += n_c + 1;
    int64_t *c_srcs = w; w += n_csrcs;
    int64_t *ctab = w; w += 32 * n_used;
    int64_t *outlined_pc = w; w += n_used;
    int64_t *site_id = w; w += n_used;
    int8_t *kind = (int8_t *)w;
    int8_t *taken = kind + n_out;
    int8_t *c_taken = taken + n_out;

    /* Pass 2: fill (the walk is known good). */
    int64_t o = 0, h = 0, c = 0, sp = 0, csp = 0;
    srcs_start[0] = 0;
    c_srcs_start[0] = 0;
    for (int64_t i = 0; i < n; o++) {
        int64_t s = site_at[S->pc[i]];
        int64_t last = i;
        if (s < 0) {
            pc[o] = pc_map[S->pc[i]];
            op[o] = S->op[i];
            opclass[o] = S->opclass[i];
            latency[o] = S->latency[i];
            rd[o] = S->rd[i];
            addr[o] = S->addr[i];
            taken[o] = S->taken[i];
            kind[o] = 0;
            hidx[o] = -1;
            for (int64_t k = S->srcs_start[i]; k < S->srcs_start[i + 1]; k++)
                srcs[sp++] = S->srcs[k];
        } else {
            const int64_t *st = sites + s * FS_WORDS;
            int64_t size = st[FS_END] - st[FS_START];
            int64_t a = -1;
            int8_t tk = 0;
            last = i + size - 1;
            for (int64_t k = 0; k < size; k++) {
                int64_t j = i + k;
                if (S->addr[j] >= 0) a = S->addr[j];
                if (S->opclass[j] == OC_BRANCH) tk = S->taken[j];
                c_opclass[c + k] = S->opclass[j];
                c_latency[c + k] = S->latency[j];
                c_addr[c + k] = S->addr[j];
                c_rd[c + k] = S->rd[j];
                c_taken[c + k] = S->taken[j];
                for (int64_t q = S->srcs_start[j]; q < S->srcs_start[j + 1];
                     q++)
                    c_srcs[csp++] = S->srcs[q];
                c_srcs_start[c + k + 1] = csp;
            }
            pc[o] = st[FS_HANDLE_PC];
            op[o] = -1;
            opclass[o] = OC_MGH;
            latency[o] = 0;
            rd[o] = st[FS_OUT_REG];
            addr[o] = a;
            taken[o] = tk;
            kind[o] = 1;
            hidx[o] = h;
            for (int64_t k = 0; k < st[FS_N_SRC]; k++)
                srcs[sp++] = ext[st[FS_SRC_OFF] + k];
            h_tpl[h] = st[FS_TPL];
            h_nominal[h] = st[FS_NOMINAL];
            h_outix[h] = st[FS_OUTIX];
            h_flags[h] = st[FS_FLAGS];
            h_mem_pc[h] = st[FS_MEM_PC];
            h_site[h] = dense[s];
            h_coff[h] = c;
            h_cnt[h] = size;
            h++;
            c += size;
        }
        int64_t np = S->next_pc[last];
        next_pc[o] = np < n_static ? pc_map[np] : np;
        srcs_start[o + 1] = sp;
        i = last + 1;
    }

    /* Dense per-site input-consumer tables (marshal's 32-wide rows). */
    memset(ctab, 0, (size_t)(32 * n_used) * 8);
    for (int64_t s = 0; s < n_sites; s++) {
        if (dense[s] < 0) continue;
        const int64_t *st = sites + s * FS_WORDS;
        outlined_pc[dense[s]] = st[FS_OUTLINED_PC];
        site_id[dense[s]] = st[FS_SITE_ID];
        int64_t *row = ctab + dense[s] * 32;
        for (int64_t k = 0; k < st[FS_N_CONS]; k++) {
            int64_t reg = ext[st[FS_CONS_OFF] + 2 * k];
            if (reg >= 0 && reg < 32)
                row[reg] = ext[st[FS_CONS_OFF] + 2 * k + 1];
        }
    }

    D->pc = pc; D->op = op; D->opclass = opclass; D->latency = latency;
    D->rd = rd; D->addr = addr; D->next_pc = next_pc;
    D->srcs = srcs; D->srcs_start = srcs_start;
    D->kind = kind; D->taken = taken;
    D->n = n_out;
    D->hidx = hidx;
    D->h_tpl = h_tpl; D->h_nominal = h_nominal; D->h_outix = h_outix;
    D->h_flags = h_flags; D->h_mem_pc = h_mem_pc; D->h_site = h_site;
    D->h_coff = h_coff; D->h_cnt = h_cnt;
    D->c_opclass = c_opclass; D->c_latency = c_latency;
    D->c_addr = c_addr; D->c_rd = c_rd;
    D->c_srcs = c_srcs; D->c_srcs_start = c_srcs_start; D->c_taken = c_taken;
    D->site_consumer_ix = ctab;
    D->site_outlined_pc = outlined_pc; D->site_id = site_id;
    D->n_handles = n_h;
    D->n_sites = n_used;
    *block = blk;
    rc = RC_OK;

done:
    free(site_at);
    free(dense);
    return rc;
}

void repro_fold_free(void *block) {
    free(block);
}

/* ------------------------------------------------------------------ */
/* plan-construction kernels: profile build, candidate enumeration,   */
/* delay-model scoring, global-slack fold                             */
/* ------------------------------------------------------------------ */
/* Statement-for-statement ports of the plan-side hot paths in
 * minigraph/slack.py, minigraph/candidates.py (+ dataflow.py /
 * serialization.py), minigraph/delay_model.py and
 * analysis/global_slack.py. The Python implementations remain the
 * behavioural reference; results must be bit-identical (integer sums
 * everywhere a sum is taken, and doubles only where the Python code
 * holds a float, combined in the same operation order). */

#define PLAN_MAX_SRC 4     /* src positions per singleton (ISA max 3) */
#define PLAN_NONE62 (((int64_t)1) << 62)
#define PLAN_BIG50 (((int64_t)1) << 50)

/* Build the whole slack profile from one run's packed event log: the
 * repro_tap_fold first pass plus the committed-prefix aggregation loop
 * of SlackCollector.ingest_ckern_tap, in one call. Aggregates are
 * int64 sums per static pc (stride PLAN_MAX_SRC for the per-position
 * source columns); ``order`` receives static pcs in first-commit order
 * (the _acc dict's insertion order, so profile() iterates entries
 * identically). ``meta[0]`` = number of distinct pcs, ``meta[1]`` =
 * final anchor. ``min_slack`` must be pre-filled with ``slack_cap``. */
int64_t repro_profile_build(
        const int64_t *events, int64_t n_words, int64_t n_committed,
        const int8_t *kind, const int64_t *pc, const int64_t *rd,
        const int64_t *srcs, const int64_t *srcs_start, int64_t n,
        const int8_t *is_leader, int64_t n_static,
        int64_t anchor0, int64_t slack_cap,
        int64_t *count, int64_t *issue_sum,
        int64_t *src_sum, int64_t *src_count, int64_t *n_src,
        int64_t *out_sum, int64_t *out_count,
        int64_t *slack_sum, int64_t *min_slack,
        int64_t *order, int64_t *meta) {
    if (n <= 0 || n_committed > n) return RC_UNSUPPORTED;
    int64_t *cells = (int64_t *)malloc((size_t)n * 8);
    int64_t *issue_cycle = (int64_t *)calloc((size_t)n, 8);
    int64_t *out_ready = (int64_t *)malloc((size_t)n * 8);
    if (!cells || !issue_cycle || !out_ready) {
        free(cells); free(issue_cycle); free(out_ready);
        return RC_NOMEM;
    }
    for (int64_t i = 0; i < n; i++) {
        cells[i] = PLAN_NONE62;
        out_ready[i] = BIG;
    }
    repro_tap_fold(events, n_words, cells, issue_cycle, out_ready);

    int64_t last_writer[32];
    for (int k = 0; k < 32; k++) last_writer[k] = -1;
    int64_t anchor = anchor0;
    int64_t n_order = 0;
    for (int64_t ix = 0; ix < n_committed; ix++) {
        int64_t r = rd[ix];
        if (kind[ix]) {
            /* Committed handles update the architectural last-writer
             * map but are profiled by the attribution decode. */
            if (r >= 0) last_writer[r] = ix;
            continue;
        }
        int64_t p = pc[ix];
        int64_t s0 = srcs_start[ix];
        int64_t s1 = srcs_start[ix + 1];
        if (p < 0 || p >= n_static || s1 - s0 > PLAN_MAX_SRC) {
            free(cells); free(issue_cycle); free(out_ready);
            return RC_UNSUPPORTED;
        }
        if (count[p] == 0) {
            n_src[p] = s1 - s0;
            order[n_order++] = p;
        }
        if (is_leader[p]) anchor = issue_cycle[ix];
        count[p] += 1;
        issue_sum[p] += issue_cycle[ix] - anchor;
        for (int64_t position = 0; position < s1 - s0; position++) {
            int64_t src = srcs[s0 + position];
            if (src == 0) continue;
            int64_t writer = last_writer[src];
            if (writer < 0) continue;
            int64_t ready = out_ready[writer];
            if (ready < PLAN_BIG50) {
                src_sum[p * PLAN_MAX_SRC + position] += ready - anchor;
                src_count[p * PLAN_MAX_SRC + position] += 1;
            }
        }
        if (r >= 0) {
            out_sum[p] += out_ready[ix] - anchor;
            out_count[p] += 1;
            last_writer[r] = ix;
        }
        /* on_finish, inline: clamp this instance's slack sample. */
        int64_t sample = cells[ix];
        if (sample == PLAN_NONE62) sample = slack_cap;
        else if (sample < 0) sample = 0;
        else if (sample > slack_cap) sample = slack_cap;
        slack_sum[p] += sample;
        if (sample < min_slack[p]) min_slack[p] = sample;
    }
    meta[0] = n_order;
    meta[1] = anchor;
    free(cells); free(issue_cycle); free(out_ready);
    return RC_OK;
}

/* Candidate packing formats (decoded by candidates.py, must match):
 *   ext:   bits 0-1 count (<= 3); entry k at bits 2+9k:
 *          reg (5 bits) | consumer_offset << 5 (2) | position << 7 (2)
 *   out:   -1 for no live register output, else (reg << 2) | producer
 *   edges: bits 0-2 count (<= 6); entry k at bits 3+4k:
 *          (producer_offset << 2) | consumer_offset, sorted ascending
 *   ser:   0 = NONE, 1 = BOUNDED, 2 = UNBOUNDED                      */

/* The enumeration loop of candidates.enumerate_candidates over static
 * listing columns: per basic block, every window [start, end) of
 * aggregable instructions with <= 1 memory op, <= max_ext external
 * inputs (window extension stops once exceeded: inputs only grow),
 * <= 1 live register output, and any control transfer last. The
 * interface/edge/classification analyses mirror dataflow.py and
 * serialization.py exactly. ``rd_eff`` is the destination register for
 * writes_reg instructions, else -1; ``srcs3`` is 3-wide with -1 tail
 * padding; ``live_mask`` is the per-instruction live-out register
 * bitmask. Requires max_size <= 4 and max_ext <= 3 (the packed-format
 * bounds; the Python caller falls back otherwise). Returns the number
 * of candidates, or -(RC_*) on failure. */
int64_t repro_enumerate_candidates(
        const int64_t *opclass, const int64_t *rd_eff,
        const int64_t *srcs3, const int64_t *live_mask, int64_t n_static,
        const int64_t *block_start, const int64_t *block_end,
        int64_t n_blocks, int64_t max_size, int64_t max_ext,
        int64_t *c_start, int64_t *c_end, int64_t *c_ext, int64_t *c_out,
        int64_t *c_edges, int64_t *c_ser, int64_t cap) {
    if (max_size < 2 || max_size > 4 || max_ext < 0 || max_ext > 3)
        return -RC_UNSUPPORTED;
    int64_t n_cand = 0;
    for (int64_t bi = 0; bi < n_blocks; bi++) {
        int64_t bs = block_start[bi];
        int64_t be = block_end[bi];
        for (int64_t start = bs; start < be - 1; start++) {
            int64_t max_end = be < start + max_size ? be
                                                    : start + max_size;
            int64_t mem_ops = 0;
            for (int64_t end = start + 1; end <= max_end; end++) {
                int64_t cls = opclass[end - 1];
                if (cls != OC_SIMPLE && cls != OC_LOAD &&
                    cls != OC_STORE && cls != OC_BRANCH)
                    break;
                if (cls == OC_LOAD || cls == OC_STORE) {
                    mem_ops += 1;
                    if (mem_ops > 1) break;
                }
                int64_t size = end - start;
                if (size >= 2) {
                    /* group_interface: external inputs in first-use
                     * order, live outputs by producer offset. */
                    uint32_t defined_mask = 0, seen_ext = 0;
                    int64_t defined_off[32];
                    int64_t ext_reg[12], ext_off[12], ext_pos[12];
                    int64_t n_ext = 0;
                    for (int64_t off = 0; off < size; off++) {
                        const int64_t *s3 = srcs3 + (start + off) * 3;
                        for (int64_t posn = 0; posn < 3; posn++) {
                            int64_t src = s3[posn];
                            if (src < 0) break;   /* tail padding */
                            if (src == 0 ||
                                ((defined_mask >> src) & 1))
                                continue;
                            if (!((seen_ext >> src) & 1)) {
                                seen_ext |= (uint32_t)1 << src;
                                ext_reg[n_ext] = src;
                                ext_off[n_ext] = off;
                                ext_pos[n_ext] = posn;
                                n_ext++;
                            }
                        }
                        int64_t r = rd_eff[start + off];
                        if (r >= 0) {
                            defined_mask |= (uint32_t)1 << r;
                            defined_off[r] = off;
                        }
                    }
                    if (n_ext > max_ext) break;
                    uint32_t outm = defined_mask &
                                    (uint32_t)live_mask[end - 1];
                    int64_t n_out = 0, out_reg = -1, out_off = -1;
                    for (int64_t r = 1; r < 32; r++) {
                        if ((outm >> r) & 1) {
                            n_out++;
                            out_reg = r;
                            out_off = defined_off[r];
                        }
                    }
                    if (n_out <= 1) {
                        /* internal_edges: dedup'd (producer, consumer)
                         * pairs; producer always earlier, so the
                         * a-major scan emits them sorted. */
                        uint32_t lw_mask = 0;
                        int64_t lw_off[32];
                        uint16_t edge_mask = 0;
                        for (int64_t off = 0; off < size; off++) {
                            const int64_t *s3 = srcs3 +
                                                (start + off) * 3;
                            for (int64_t posn = 0; posn < 3; posn++) {
                                int64_t src = s3[posn];
                                if (src < 0) break;
                                if ((lw_mask >> src) & 1)
                                    edge_mask |= (uint16_t)1
                                        << (lw_off[src] * 4 + off);
                            }
                            int64_t r = rd_eff[start + off];
                            if (r >= 0) {
                                lw_mask |= (uint32_t)1 << r;
                                lw_off[r] = off;
                            }
                        }
                        int64_t epack = 0, n_edges = 0;
                        uint8_t uadj[4] = {0, 0, 0, 0};
                        uint8_t dadj[4] = {0, 0, 0, 0};
                        for (int64_t a = 0; a < size; a++) {
                            for (int64_t b = 0; b < size; b++) {
                                if (!((edge_mask >> (a * 4 + b)) & 1))
                                    continue;
                                epack |= (int64_t)((a << 2) | b)
                                    << (3 + 4 * n_edges);
                                n_edges++;
                                uadj[a] |= (uint8_t)(1 << b);
                                uadj[b] |= (uint8_t)(1 << a);
                                dadj[a] |= (uint8_t)(1 << b);
                            }
                        }
                        epack |= n_edges;
                        /* classify (serialization.py): */
                        int serial = 0;
                        for (int64_t k = 0; k < n_ext; k++)
                            if (ext_off[k] > 0) { serial = 1; break; }
                        int64_t ser;
                        if (!serial) {
                            ser = 0;                     /* NONE */
                        } else if (n_out == 0) {
                            ser = 1;                     /* BOUNDED */
                        } else {
                            /* weak connectivity from node 0 */
                            uint8_t reach = 1;
                            for (int64_t it = 0; it < size; it++)
                                for (int64_t i = 0; i < size; i++)
                                    if ((reach >> i) & 1)
                                        reach |= uadj[i];
                            uint8_t all = (uint8_t)((1 << size) - 1);
                            if (reach != all) {
                                ser = 2;                 /* UNBOUNDED */
                            } else {
                                /* directed transitive closure */
                                uint8_t dreach[4];
                                for (int64_t i = 0; i < size; i++)
                                    dreach[i] = dadj[i];
                                for (int64_t it = 0; it < size; it++)
                                    for (int64_t i = 0; i < size; i++)
                                        for (int64_t j = 0; j < size;
                                             j++)
                                            if ((dreach[i] >> j) & 1)
                                                dreach[i] |= dreach[j];
                                ser = 1;                 /* BOUNDED */
                                for (int64_t k = 0; k < n_ext; k++) {
                                    int64_t cons = ext_off[k];
                                    if (cons == 0) continue;
                                    if (cons != out_off &&
                                        !((dreach[cons] >> out_off)
                                          & 1)) {
                                        ser = 2;         /* UNBOUNDED */
                                        break;
                                    }
                                }
                            }
                        }
                        if (n_cand >= cap) return -RC_NOMEM;
                        c_start[n_cand] = start;
                        c_end[n_cand] = end;
                        int64_t xpack = n_ext;
                        for (int64_t k = 0; k < n_ext; k++)
                            xpack |= (ext_reg[k] | (ext_off[k] << 5) |
                                      (ext_pos[k] << 7))
                                << (2 + 9 * k);
                        c_ext[n_cand] = xpack;
                        c_out[n_cand] = n_out
                            ? ((out_reg << 2) | out_off) : -1;
                        c_edges[n_cand] = epack;
                        c_ser[n_cand] = ser;
                        n_cand++;
                    }
                }
                if (cls == OC_BRANCH) break;   /* transfer must be last */
            }
        }
    }
    return n_cand;
}

/* Delay-model rules #1-#4 (delay_model.assess) for a whole candidate
 * set against a packed profile, one verdict bitmask per candidate:
 * bit 0 profiled (profile covers the window), bit 1 degrades (rule #4),
 * bit 2 degrades on any output delay, bit 3 SIAL. Profile columns are
 * doubles (the exact division results Python holds); absent src-ready
 * values are -inf, exactly the _NEG_INF substitution in assess(). All
 * float arithmetic replicates the Python operation order. */
int64_t repro_score_candidates(
        int64_t n_cand, const int64_t *c_start, const int64_t *c_end,
        const int64_t *c_ext, const int64_t *c_out,
        const int64_t *opclass, const int64_t *latency, int64_t n_static,
        const int8_t *p_present, const double *p_rel_issue,
        const double *p_src_ready, const double *p_slack,
        const double *p_out_ready, const int8_t *p_has_out,
        int64_t measured, double tolerance, int64_t *verdict) {
    for (int64_t i = 0; i < n_cand; i++) {
        int64_t start = c_start[i];
        int64_t end = c_end[i];
        int64_t size = end - start;
        if (size < 1 || size > 4 || start < 0 || end > n_static) {
            verdict[i] = 0;   /* outside the profile: unprofiled */
            continue;
        }
        int covered = 1;
        for (int64_t k = 0; k < size; k++)
            if (!p_present[start + k]) { covered = 0; break; }
        if (!covered) {
            verdict[i] = 0;
            continue;
        }
        double lat[4];
        for (int64_t k = 0; k < size; k++)
            lat[k] = (double)latency[start + k];
        if (measured) {
            for (int64_t k = 0; k < size; k++) {
                if (p_has_out[start + k]) {
                    double observed = p_out_ready[start + k] -
                                      p_rel_issue[start + k];
                    if (observed > lat[k]) lat[k] = observed;
                }
            }
        }
        /* Rule #1: the handle waits for every external input. */
        int64_t xpack = c_ext[i];
        int64_t n_ext = xpack & 3;
        double ready_vals[3], ser_ready[3];
        int64_t n_ready = 0, n_ser = 0;
        for (int64_t k = 0; k < n_ext; k++) {
            int64_t entry = (xpack >> (2 + 9 * k)) & 0x1ff;
            int64_t cons = (entry >> 5) & 3;
            int64_t posn = (entry >> 7) & 3;
            double rv = p_src_ready[(start + cons) * PLAN_MAX_SRC
                                    + posn];
            ready_vals[n_ready++] = rv;
            if (cons > 0) ser_ready[n_ser++] = rv;
        }
        double issue0 = p_rel_issue[start];
        if (n_ready) {
            double m = ready_vals[0];
            for (int64_t k = 1; k < n_ready; k++)
                if (ready_vals[k] > m) m = ready_vals[k];
            if (m > issue0) issue0 = m;
        }
        /* Rule #2: strictly serial internal execution. */
        double issue_mg[4];
        issue_mg[0] = issue0;
        for (int64_t k = 1; k < size; k++)
            issue_mg[k] = issue_mg[k - 1] + lat[k - 1];
        /* Rule #3: per-constituent induced delay. */
        double delays[4];
        for (int64_t k = 0; k < size; k++)
            delays[k] = issue_mg[k] - p_rel_issue[start + k];
        /* Rule #4: register output plus any store or branch. */
        int64_t out_idx[5];
        int64_t n_outi = 0;
        if (c_out[i] >= 0) out_idx[n_outi++] = c_out[i] & 3;
        for (int64_t off = 0; off < size; off++) {
            int64_t cls = opclass[start + off];
            if (cls == OC_STORE || cls == OC_BRANCH) {
                int dup = 0;
                for (int64_t j = 0; j < n_outi; j++)
                    if (out_idx[j] == off) { dup = 1; break; }
                if (!dup) out_idx[n_outi++] = off;
            }
        }
        int64_t degrades = 0;
        for (int64_t j = 0; j < n_outi; j++) {
            int64_t idx = out_idx[j];
            if (delays[idx] > p_slack[start + idx] + tolerance) {
                degrades = 1;
                break;
            }
        }
        int64_t delay_only = 0;
        for (int64_t j = 0; j < n_outi; j++)
            if (delays[out_idx[j]] > tolerance) { delay_only = 1; break; }
        /* SIAL: the last-arriving mg-input feeds a non-first
         * constituent and arrives after constituent 0 could issue. */
        int64_t sial = 0;
        if (n_ser && n_ready) {
            double last = ready_vals[0];
            for (int64_t k = 1; k < n_ready; k++)
                if (ready_vals[k] > last) last = ready_vals[k];
            if (last > p_rel_issue[start]) {
                double ms = ser_ready[0];
                for (int64_t k = 1; k < n_ser; k++)
                    if (ser_ready[k] > ms) ms = ser_ready[k];
                if (ms >= last) sial = 1;
            }
        }
        verdict[i] = 1 | (degrades << 1) | (delay_only << 2) |
                     (sial << 3);
    }
    return RC_OK;
}

/* The global-slack event decode and backward DP of
 * GlobalSlackCollector (ingest_ckern_tap's second pass plus
 * _global_profile_from_tap), aggregated per static pc. ``sums`` and
 * ``counts`` must be zeroed and ``mins`` pre-filled with
 * (double)slack_cap. Returns the number of committed singletons
 * (0 -> empty profile), or -RC_NOMEM. Doubles combine in exactly the
 * Python operation order, so the aggregates are bit-identical. */
int64_t repro_global_fold(
        const int64_t *events, int64_t n_words, int64_t n_committed,
        const int8_t *kind, const int64_t *pc, int64_t n,
        int64_t slack_cap, double *sums, double *mins, int64_t *counts) {
    if (n <= 0 || n_committed > n) return 0;
    int64_t *cur = (int64_t *)calloc((size_t)n, 8);
    int64_t *genf = (int64_t *)malloc((size_t)n * 8);
    int64_t *redir = (int64_t *)malloc((size_t)n * 8);
    int64_t *vready = (int64_t *)calloc((size_t)n, 8);
    int64_t *comp = (int64_t *)calloc((size_t)n, 8);
    int64_t *scnt = (int64_t *)calloc((size_t)n, 8);
    int64_t *soff = (int64_t *)malloc(((size_t)n + 1) * 8);
    double *G = (double *)malloc((size_t)n * sizeof(double));
    int8_t *hasG = (int8_t *)calloc((size_t)n, 1);
    int64_t *s_val = NULL, *s_cix = NULL, *s_cgen = NULL, *fill = NULL;
    int64_t rc = -RC_NOMEM;
    if (!cur || !genf || !redir || !vready || !comp || !scnt || !soff ||
        !G || !hasG)
        goto done;
    for (int64_t i = 0; i < n; i++) redir[i] = -1;

    /* Pass 1: generation counts, last TAP_VALUE, last redirect gen. */
    for (int64_t i = 0; i + 2 < n_words; i += 3) {
        int64_t w0 = events[i];
        int64_t tag = w0 & 15;
        int64_t ix = w0 >> 4;
        if (tag == TAP_ISSUE) cur[ix] += 1;
        else if (tag == TAP_VALUE) {
            vready[ix] = events[i + 1];
            comp[ix] = events[i + 2];
        } else if (tag == TAP_REDIRECT) redir[ix] = cur[ix];
    }
    memcpy(genf, cur, (size_t)n * 8);

    /* Pass 2: count consume samples attached to the final (committed)
     * instance of each committed singleton — the only keys the DP
     * queries; samples against squashed instances are orphaned exactly
     * as stale id() keys were. */
    memset(cur, 0, (size_t)n * 8);
    for (int64_t i = 0; i + 2 < n_words; i += 3) {
        int64_t w0 = events[i];
        int64_t tag = w0 & 15;
        int64_t ix = w0 >> 4;
        if (tag == TAP_ISSUE) cur[ix] += 1;
        else if (tag == TAP_CONSUME) {
            if (ix < n_committed && !kind[ix] && cur[ix] == genf[ix])
                scnt[ix] += 1;
        }
    }
    soff[0] = 0;
    for (int64_t i = 0; i < n; i++) soff[i + 1] = soff[i] + scnt[i];
    int64_t total = soff[n];
    s_val = (int64_t *)malloc((size_t)(total ? total : 1) * 8);
    s_cix = (int64_t *)malloc((size_t)(total ? total : 1) * 8);
    s_cgen = (int64_t *)malloc((size_t)(total ? total : 1) * 8);
    fill = (int64_t *)calloc((size_t)n, 8);
    if (!s_val || !s_cix || !s_cgen || !fill) goto done;

    /* Pass 3: record (consumer ix, consumer gen, sample) per kept
     * consume, in event order (the Python append order). */
    memset(cur, 0, (size_t)n * 8);
    for (int64_t i = 0; i + 2 < n_words; i += 3) {
        int64_t w0 = events[i];
        int64_t tag = w0 & 15;
        int64_t ix = w0 >> 4;
        if (tag == TAP_ISSUE) cur[ix] += 1;
        else if (tag == TAP_CONSUME) {
            if (ix < n_committed && !kind[ix] && cur[ix] == genf[ix]) {
                int64_t slot = soff[ix] + fill[ix]++;
                int64_t b = events[i + 2];
                s_val[slot] = events[i + 1];
                s_cix[slot] = b;
                s_cgen[slot] = cur[b];
            }
        }
    }

    /* end_time = max completion over committed singletons. */
    int64_t end_time = 0;
    int64_t n_sing = 0;
    for (int64_t ix = 0; ix < n_committed; ix++) {
        if (kind[ix]) continue;
        if (n_sing == 0 || comp[ix] > end_time) end_time = comp[ix];
        n_sing++;
    }
    if (n_sing == 0) { rc = 0; goto done; }

    /* Backward DP, youngest-first (consumers are always younger). */
    double cap_f = (double)slack_cap;
    for (int64_t ix = n_committed - 1; ix >= 0; ix--) {
        if (kind[ix]) continue;
        double g;
        if (redir[ix] == genf[ix]) {
            g = 0.0;
        } else if (scnt[ix] == 0) {
            g = (double)(end_time - vready[ix]);
        } else {
            g = 0.0;
            int first = 1;
            for (int64_t slot = soff[ix]; slot < soff[ix] + scnt[ix];
                 slot++) {
                int64_t cix = s_cix[slot];
                double gc = cap_f;
                if (cix < n_committed && !kind[cix] && hasG[cix] &&
                    s_cgen[slot] == genf[cix])
                    gc = G[cix];
                double v = (double)s_val[slot] + gc;
                if (first || v < g) { g = v; first = 0; }
            }
        }
        if (g < 0.0) g = 0.0;   /* max(0.0, g) */
        G[ix] = g;
        hasG[ix] = 1;
    }

    /* Aggregate per pc, ascending (the Python loop's float-add order). */
    for (int64_t ix = 0; ix < n_committed; ix++) {
        if (kind[ix]) continue;
        double g = G[ix];
        if (g > cap_f) g = cap_f;   /* min(G, cap) */
        int64_t p = pc[ix];
        sums[p] += g;
        if (g < mins[p]) mins[p] = g;
        counts[p] += 1;
    }
    rc = n_sing;

done:
    free(cur); free(genf); free(redir); free(vready); free(comp);
    free(scnt); free(soff); free(G); free(hasG);
    free(s_val); free(s_cix); free(s_cgen); free(fill);
    return rc;
}
