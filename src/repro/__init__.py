"""repro — serialization-aware mini-graphs (MICRO 2006 reproduction).

A from-scratch Python implementation of mini-graph processing on a
cycle-level out-of-order superscalar simulator, with the five mini-graph
selection algorithms of Bracy & Roth, *Serialization-Aware Mini-Graphs:
Performance with Fewer Resources* (MICRO 2006), and harnesses regenerating
every figure of the paper's evaluation.

Quickstart::

    from repro import isa, pipeline, minigraph
    from repro.harness import Runner
"""

__version__ = "1.0.0"

from . import isa, minigraph, pipeline  # noqa: F401

__all__ = ["isa", "minigraph", "pipeline", "__version__"]
