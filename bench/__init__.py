"""The repo's one performance benchmark: ``python -m bench run|compare``.

Six named workloads drive the program through its public entry points
(``repro.train`` per backend, ``GridExecutor.execute``, a ``python -m
repro serve`` subprocess over its socket) and report end-to-end numbers;
a traced run adds per-layer probes that price each package under
``src/repro/`` as a tax over the layer beneath it.  ``BENCHMARK.json`` at
the repo root names the command, workloads, metrics and bounds; see
``bench/README.md`` for the glossary and how to read the numbers.
"""
