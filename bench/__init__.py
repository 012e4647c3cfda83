"""The repo benchmark: six paper-shaped workloads measured from outside ``repro``.

``python3 -m bench measure`` is the command ``BENCHMARK.json`` names (one
workload per process); ``run`` measures all six into one report and
``compare`` sets two reports side by side.  See ``bench/README.md``.
"""
