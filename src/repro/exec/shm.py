"""Zero-copy trace transport for scheduler worker processes.

Functional traces are by far the largest artifacts the executor moves:
a 2M-instruction singleton trace pickles to tens of megabytes, and
without help every worker process re-reads and re-unpickles it from the
on-disk :class:`~repro.exec.store.ArtifactStore`. This module instead
publishes the trace's :class:`~repro.isa.interp.PackedTrace` columns
into one ``multiprocessing.shared_memory`` segment per distinct
(benchmark, input) pair; workers attach the segment and wrap the columns
in ``memoryview.cast`` views — the numeric payload is mapped, not
copied. Only the small per-record ``TraceRecord`` objects (needed by
rename, folding, and lockstep checking) are rebuilt, once per process,
and the rehydrated trace is memoized by segment name.

Ownership protocol:

* the **parent** (scheduler driver) creates segments via
  :class:`ShmRegistry` and is the only process that ever unlinks them —
  ``release_all()`` runs in the driver's ``finally`` so segments never
  outlive the run, even when a worker is killed mid-task;
* **workers** attach read-only-by-convention and never unregister.
  Pool workers share the parent's ``resource_tracker`` (under fork,
  spawn and forkserver alike), and Python 3.12 and earlier register a
  segment on *attach* as well as on create. The tracker keeps a set of
  names, so those extra registrations are no-ops and the parent's one
  unlink clears the name. A worker-side unregister would instead race
  its siblings': two unregisters of one name make the tracker process
  print a ``KeyError`` traceback;
* every failure path (no ``/dev/shm``, segment vanished, unpicklable
  layout) returns ``None`` and the caller silently falls back to the
  ordinary pickle-through-the-store transport.

Only singleton traces (no mini-graph handles) are published: handle
records carry object-graph state (sites, templates) that the flat
column layout deliberately does not encode — folded traces are always
rebuilt worker-side from the plan anyway.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional

from ..isa.interp import PackedTrace, Trace, TraceRecord

#: Fixed column order of the segment payload. All ``'q'`` (int64)
#: columns first — the segment starts 8-byte aligned, so keeping the
#: two byte columns last means no padding arithmetic anywhere.
_Q_COLUMNS = ("pc", "op", "opclass", "latency", "rd", "addr", "next_pc")


def _shared_memory():
    try:
        from multiprocessing import shared_memory
        return shared_memory
    except ImportError:  # pragma: no cover - always present on CPython
        return None


def segment_size(packed: PackedTrace, n_memory: int) -> int:
    """Total payload bytes for one packed trace."""
    n = packed.n
    q_words = len(_Q_COLUMNS) * n + (n + 1) + len(packed.srcs) \
        + max(n_memory, 0)
    return 8 * q_words + 2 * n


class ShmRegistry:
    """Parent-side registry of published trace segments.

    Segments are deduplicated and refcounted by (bench, input,
    max_insts): publishing the same trace twice returns the same
    descriptor, and :meth:`release` only unlinks once the last
    publisher lets go. :meth:`release_all` force-unlinks everything —
    the driver's ``finally`` backstop against leaked ``/dev/shm``
    entries when workers die mid-flight.
    """

    def __init__(self):
        self._segments: Dict[tuple, list] = {}  # key -> [shm, desc, refs]

    def publish(self, trace: Trace, bench: str, input_name: str,
                max_insts: int) -> Optional[Dict[str, Any]]:
        """Place ``trace``'s columns in shared memory; None on fallback."""
        key = (bench, input_name, max_insts)
        entry = self._segments.get(key)
        if entry is not None:
            entry[2] += 1
            return entry[1]
        shared_memory = _shared_memory()
        if shared_memory is None:
            return None
        packed = trace.packed()
        n = packed.n
        if n == 0 or any(packed.kind):
            return None  # empty or folded: not transportable
        memory = trace.final_memory
        n_memory = len(memory) if memory is not None else -1
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=segment_size(packed, n_memory))
        except OSError:
            return None  # no /dev/shm (or it is full): fall back
        offset = 0
        columns: List[array] = [getattr(packed, name)
                                for name in _Q_COLUMNS]
        columns += [packed.srcs_start, packed.srcs]
        if n_memory >= 0:
            columns.append(array("q", memory))
        columns += [packed.kind, packed.taken]
        buf = shm.buf
        for column in columns:
            raw = column.tobytes()
            buf[offset:offset + len(raw)] = raw
            offset += len(raw)
        descriptor = {
            "segment": shm.name,
            "bench": bench,
            "input": input_name,
            "max_insts": max_insts,
            "n": n,
            "n_srcs": len(packed.srcs),
            "n_memory": n_memory,
        }
        self._segments[key] = [shm, descriptor, 1]
        return descriptor

    def release(self, descriptor: Dict[str, Any]) -> None:
        """Drop one reference; unlink the segment when none remain."""
        key = (descriptor["bench"], descriptor["input"],
               descriptor["max_insts"])
        entry = self._segments.get(key)
        if entry is None:
            return
        entry[2] -= 1
        if entry[2] <= 0:
            self._unlink(self._segments.pop(key)[0])

    def release_all(self) -> None:
        """Unlink every live segment regardless of refcount."""
        for entry in list(self._segments.values()):
            self._unlink(entry[0])
        self._segments.clear()

    def __len__(self) -> int:
        return len(self._segments)

    @staticmethod
    def _unlink(shm) -> None:
        try:
            shm.close()
        except BufferError:  # a live export; unlink still reclaims it
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


# -- worker side ---------------------------------------------------------------

#: segment name -> (SharedMemory, rehydrated Trace). Process-lifetime:
#: attached segments stay mapped so the zero-copy columns remain valid
#: for every later task in the same worker.
_ATTACHED: Dict[str, tuple] = {}


def attach_trace(descriptor: Dict[str, Any]) -> Optional[Trace]:
    """The trace behind ``descriptor``, rebuilt over the shared columns.

    Memoized per process by segment name. Returns ``None`` whenever the
    segment cannot be attached (already released, no shared memory on
    this platform) — callers fall back to the artifact store.
    """
    name = descriptor["segment"]
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    shared_memory = _shared_memory()
    if shared_memory is None:
        return None
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return None
    # The columns below stay exported for the life of the process, so a
    # close() at GC / interpreter shutdown would raise BufferError;
    # neuter it — the OS reclaims the mapping at process exit anyway.
    shm.close = lambda: None
    trace = _rehydrate(descriptor, memoryview(shm.buf))
    _ATTACHED[name] = (shm, trace)
    return trace


def _rehydrate(descriptor: Dict[str, Any], buf: memoryview) -> Trace:
    n = descriptor["n"]
    n_srcs = descriptor["n_srcs"]
    n_memory = descriptor["n_memory"]
    offset = 0

    def q_view(count: int):
        nonlocal offset
        if count == 0:
            return array("q")
        view = buf[offset:offset + 8 * count].cast("q")
        offset += 8 * count
        return view

    def b_view(count: int):
        nonlocal offset
        if count == 0:
            return array("b")
        view = buf[offset:offset + count].cast("b")
        offset += count
        return view

    cols = {name: q_view(n) for name in _Q_COLUMNS}
    srcs_start = q_view(n + 1)
    srcs = q_view(n_srcs)
    final_memory = list(q_view(n_memory)) if n_memory >= 0 else None
    kind = b_view(n)
    taken = b_view(n)

    pc, op, opclass = cols["pc"], cols["op"], cols["opclass"]
    latency, rd = cols["latency"], cols["rd"]
    addr, next_pc = cols["addr"], cols["next_pc"]
    record = TraceRecord
    objs: List[TraceRecord] = []
    append = objs.append
    start = srcs_start[0]
    for i in range(n):
        end = srcs_start[i + 1]
        append(record(pc[i], op[i], opclass[i], latency[i], rd[i],
                      tuple(srcs[start:end]), addr[i], bool(taken[i]),
                      next_pc[i]))
        start = end
    packed = PackedTrace(objs, kind, pc, op, opclass, latency, rd, addr,
                         taken, next_pc, srcs, srcs_start)
    program = _program(descriptor["bench"], descriptor["input"])
    trace = Trace(program, objs, input_name=descriptor["input"],
                  final_memory=final_memory)
    trace._packed = packed
    return trace


#: (bench, input) -> Program; program construction is deterministic but
#: not free, and every task on the same benchmark shares one instance.
_PROGRAMS: Dict[tuple, Any] = {}


def _program(bench: str, input_name: str):
    key = (bench, input_name)
    program = _PROGRAMS.get(key)
    if program is None:
        from ..workloads.suite import benchmark
        program = _PROGRAMS[key] = benchmark(bench).program(input_name)
    return program
