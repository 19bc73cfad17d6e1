"""End-to-end benchmark of the whole request path (see README.md).

One command — ``python3 benchmarks/e2e/run.py`` — times the request path
``pattern → fingerprint → ordering → symbolic → scatter → factorize →
solve → refine`` directly and through ``repro.serving.Gateway`` on four
named workloads, checks every answer, and (``--trace 1``) attributes
measured seconds to each layer from benchmark-side spans.  ``BENCHMARK.json``
at the repo root declares the command, workloads and metrics.
"""
