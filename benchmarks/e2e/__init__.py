"""Full-stack end-to-end benchmark: one command, four workloads.

Boots the production configuration (cache, continuous serving,
resilience, tenancy, auth, privacy and tracing middleware all on) and
measures whole chat turns through it — see ``README.md`` next to this
file for the workloads, the metric names and how to read a traced
round. ``BENCHMARK.json`` at the repo root names the command, the
workloads, the bounded end-to-end metrics and the per-layer metrics.
"""

import os

#: Traces and the run history are written here (git-ignored).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
