"""Set-up probe, run in a fresh interpreter by run.py to time set-up.

    python3 bench/setup_probe.py '{"platforms": ["leo"], "workflow": "w.json"}'

Imports cosmos and its CLI, then loads the rate cards and generated
documents a workload's first command reads, through the public loaders.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cosmos  # noqa: E402
import cosmos.cli  # noqa: E402,F401

spec = json.loads(sys.argv[1])
for platform_id in spec.get("platforms", ()):
    cosmos.load_platform(platform_id)
if "workflow" in spec:
    cosmos.load_workflow_document(spec["workflow"])
if "points" in spec:
    cosmos.load_point_table(spec["points"])
