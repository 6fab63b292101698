"""Benchmark registry.

The paper evaluates 78 programs from SPECint2000, MediaBench, CommBench,
and MiBench. Those suites (and an Alpha cross-compiler) are not available
here, so the reproduction substitutes a population with the same structure:

* hand-written kernels in the same four families, capturing the loop and
  dataflow idioms the original suites are known for (pointer chasing,
  compression, DSP/codec arithmetic, checksums/protocol handling,
  sort/search/crypto); and
* seeded synthetic programs (:mod:`repro.workloads.generator`) that pad the
  population to paper scale with diverse ILP/branch/memory profiles.

Every benchmark runs to completion and carries at least two input sets
(``train``/``ref``) for the cross-input robustness study (Figure 9).

:data:`TABLE` lists the in-tree population, one :class:`Row` per
benchmark, and the registry is built from it on import. A row names its
builder by module and function, and :meth:`Benchmark.program` imports
that module when it builds the row's first program, so a run imports
only the builder modules of the programs it builds. :func:`register`
adds an out-of-tree kernel.
"""

from __future__ import annotations

import importlib
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, \
    Tuple

from ..isa.program import Program

SUITES = ("spec", "media", "comm", "embedded", "synth")


class Benchmark:
    """A named, parameterized workload."""

    def __init__(self, name: str, suite: str,
                 builder: Callable[[str], Program],
                 inputs: Sequence[str] = ("train", "ref"),
                 description: str = ""):
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        self.name = name
        self.suite = suite
        self._builder = builder
        self.inputs = tuple(inputs)
        self.description = description
        self._cache: Dict[str, Program] = {}

    def program(self, input_name: str = "train") -> Program:
        """Build (and memoize) the program image for ``input_name``."""
        if input_name not in self.inputs:
            raise ValueError(
                f"{self.name} has inputs {self.inputs}, not {input_name!r}")
        if input_name not in self._cache:
            self._cache[input_name] = self._builder(input_name)
        return self._cache[input_name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Benchmark {self.name} ({self.suite})>"


class Row(NamedTuple):
    """One in-tree benchmark of :data:`TABLE`.

    Its programs are built by ``function(*args, input_name)``, a
    module-level function of ``repro.workloads.<module>``.
    """

    name: str
    suite: str
    module: str
    function: str
    description: str
    inputs: Tuple[str, ...] = ("train", "ref")
    args: Tuple = ()


#: Seeded synthetic programs (``synth01`` ...) padding the population.
N_SYNTHETIC = 32

#: Every in-tree benchmark, grouped by builder module.
TABLE: Tuple[Row, ...] = (
    Row("crc32", "comm", "comm", "crc32", "table-driven CRC32"),
    Row("rsenc", "comm", "comm", "rs_gf_encode",
        "Reed-Solomon GF(256) parity"),
    Row("drr", "comm", "comm", "drr_sched", "deficit round robin scheduler"),
    Row("ipchk", "comm", "comm", "ipchk", "IP one's-complement checksum"),
    Row("red", "comm", "comm", "red_queue", "RED queue management"),
    Row("zrle", "comm", "comm", "zrle", "zero run-length encoding"),
    Row("qsort", "embedded", "embedded", "qsort_kernel",
        "insertion sort + weighted checksum"),
    Row("dijkstra", "embedded", "embedded", "dijkstra_kernel",
        "dense-graph shortest paths"),
    Row("sha", "embedded", "embedded", "sha_mix",
        "rotate-xor-add mixing rounds"),
    Row("stringsearch", "embedded", "embedded", "stringsearch",
        "brute-force substring search"),
    Row("bitcount", "embedded", "embedded", "bitcount",
        "multi-strategy population counts"),
    Row("fft", "embedded", "embedded", "fft_fixed",
        "fixed-point radix-2 butterflies"),
    Row("basicmath", "embedded", "embedded", "basicmath",
        "Euclid GCD with call/return"),
    Row("susan", "embedded", "embedded", "susan_threshold",
        "image neighbourhood thresholding"),
    Row("twolf", "spec", "extra", "twolf_swap",
        "annealing swap-delta evaluation"),
    Row("vortex", "spec", "extra", "vortex_db",
        "keyed record store insert/lookup"),
    Row("pegwit", "media", "extra", "pegwit_modmul",
        "square-and-multiply modexp"),
    Row("mpegidct", "media", "extra", "mpeg_idct", "shift-add 1-D IDCT"),
    Row("rtr", "comm", "extra", "rtr_lookup", "radix-tree route lookup"),
    Row("frag", "comm", "extra", "frag_rewrite", "packet fragmentation"),
    Row("blowfish", "embedded", "extra", "blowfish_rounds",
        "Feistel rounds with S-boxes"),
    Row("patricia", "embedded", "extra", "patricia_trie", "bit-trie walk"),
    Row("eon", "spec", "extra2", "eon_march", "integer voxel ray marching"),
    Row("gap", "spec", "extra2", "gap_permute", "permutation composition"),
    Row("mesa", "media", "extra2", "mesa_span", "fixed-point span rasterizer"),
    Row("g721pred", "media", "extra2", "g721_predictor",
        "sign-sign LMS predictor update"),
    Row("cast", "comm", "extra2", "cast_rounds",
        "mixed-operation cipher rounds"),
    Row("tcp", "comm", "extra2", "tcp_statemachine",
        "connection state machine"),
    Row("rijndael", "embedded", "extra2", "rijndael_round",
        "S-box round with xor diffusion"),
    Row("ispell", "embedded", "extra2", "ispell_probe",
        "dictionary hash probing"),
    Row("madsynth", "embedded", "extra2", "mad_synth",
        "windowed multiply-accumulate"),
    Row("tiffdither", "embedded", "extra2", "tiff_dither",
        "1-D error-diffusion dithering"),
    Row("adpcm", "media", "media", "adpcm_enc",
        "IMA ADPCM encoder (Figure 8 benchmark)",
        inputs=("train", "ref", "tiny")),
    Row("adpcm_dec", "media", "media", "adpcm_dec", "IMA ADPCM decoder"),
    Row("jpegdct", "media", "media", "jpeg_dct", "shift-add 8-point DCT"),
    Row("gsmlpc", "media", "media", "gsm_autocorr", "GSM LPC autocorrelation"),
    Row("g721quant", "media", "media", "g721_quant",
        "G.721 log-domain quantization"),
    Row("epicfilt", "media", "media", "epic_filter",
        "EPIC two-tap wavelet filter"),
    Row("mcf", "spec", "spec", "mcf_chase",
        "pointer chasing over shuffled arcs"),
    Row("gzip", "spec", "spec", "gzip_match", "LZ77 longest-match search"),
    Row("bzip2", "spec", "spec", "bzip2_mtf", "move-to-front transform"),
    Row("gcc", "spec", "spec", "gcc_dispatch", "table-driven opcode dispatch"),
    Row("parser", "spec", "spec", "parser_tokens",
        "tokenizer with word histogram"),
    Row("crafty", "spec", "spec", "crafty_bits",
        "bitboard popcounts and shifts"),
    Row("vpr", "spec", "spec", "vpr_cost", "placement bounding-box cost"),
    Row("perlbmk", "spec", "spec", "perl_hash", "open-addressed hashing"),
) + tuple(Row(f"synth{seed:02d}", "synth", "generator", "synth_program",
              "generated loop nest", args=(seed,))
          for seed in range(1, N_SYNTHETIC + 1))


def _build(row: Row, input_name: str) -> Program:
    """``row``'s program for ``input_name``; the first call imports the
    row's builder module."""
    module = importlib.import_module(f"{__package__}.{row.module}")
    return getattr(module, row.function)(*row.args, input_name)


_REGISTRY: Dict[str, Benchmark] = {
    row.name: Benchmark(row.name, row.suite, partial(_build, row),
                        row.inputs, row.description)
    for row in TABLE}


def register(benchmark: Benchmark) -> Benchmark:
    """Add an out-of-tree benchmark to the registry (duplicate names,
    :data:`TABLE`'s included, rejected)."""
    if benchmark.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark {benchmark.name!r}")
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def benchmark(name: str) -> Benchmark:
    """Look up one benchmark by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}") from None


def all_benchmarks(suites: Optional[Sequence[str]] = None,
                   include_synthetic: bool = True) -> List[Benchmark]:
    """All registered benchmarks, optionally restricted by suite."""
    names = sorted(_REGISTRY)
    result = []
    for name in names:
        bench = _REGISTRY[name]
        if suites is not None and bench.suite not in suites:
            continue
        if not include_synthetic and bench.suite == "synth":
            continue
        result.append(bench)
    return result
