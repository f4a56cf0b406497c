"""Three 1,000-device fleet arms behind the server frontend, pinned byte
for byte.

The arms are a FIFO frontend, a DRR frontend and the unbounded server,
on ``bench_fleet_scale.py``'s contended cost model.  FIFO sheds late
requests by deadline admission control; DRR sheds none and forms
cross-device commit groups.  Each arm's summary and frontend metrics
must equal ``tests/golden/fleet_frontend.json``; simulated time makes
them deterministic, so any difference is a behaviour change.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.api import DEFAULT_COSTS, run_fleet

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "fleet_frontend.json"

#: bench_fleet_scale.py's FLEET_COSTS: a durable-log commit cost that
#: makes 1,000 devices contend for eight workers.
FLEET_COSTS = replace(
    DEFAULT_COSTS, service_log_append=0.012, service_key_lookup=0.006
)

ARMS = {
    "fifo": {"workers": 8, "queue_limit": 4, "policy": "fifo",
             "coalesce": 8},
    "drr": {"workers": 8, "queue_limit": 4, "policy": "drr",
            "coalesce": 8},
    "unbounded": None,
}


def fleet_frontend_pin() -> str:
    out = {}
    for arm, frontend in ARMS.items():
        result = run_fleet(devices=1000, duration=10.0, seed=b"fleet-scale",
                           costs=FLEET_COSTS, frontend=frontend,
                           fleet_shards=1)
        out[arm] = {"summary": result.summary(),
                    "frontend": result.frontend_metrics}
    return json.dumps(out, sort_keys=True, default=str)


def test_fleet_frontend_arms_are_pinned():
    assert fleet_frontend_pin() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(fleet_frontend_pin())
