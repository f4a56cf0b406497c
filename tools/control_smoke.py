#!/usr/bin/env python3
"""CI smoke test for the live control plane (docs/CONTROL.md).

Three stages, each fast enough for a pull-request gate:

1. **Verb sweep** — mount a rig and drive the full control-verb set
   against it over the authenticated admin channel: status, set_texp,
   update, add_dir/remove_dir, drain/admit (asserting the shed),
   rotate_secret, tail_trace, metrics.
2. **Revocation** — after ``ctl.revoke`` a cold read is refused at the
   service with ``RevokedError``.
3. **Fleet arm** — ``run_fleet`` with scripted mid-run ``ControlEvent``s
   (a Texp tightening and a device revocation) and assert the control
   log recorded both outcomes and the revoked device's refusals landed
   under ``DeviceStats.revoked``.

Exits nonzero on the first violated expectation.  Run from the repo
root with ``PYTHONPATH=src python tools/control_smoke.py``.
"""

from __future__ import annotations

import sys

from repro.api import (
    ControlEvent,
    KeypadConfig,
    OverloadSheddedError,
    RevokedError,
    mount,
    open_control,
    run_fleet,
)

PATHS = ("/home/medical.txt", "/home/taxes.pdf")


def _mount():
    config = (
        KeypadConfig.builder()
        .texp(30.0)
        .tracing()
        .frontend(workers=4)
        .build()
    )
    return mount(config=config)


def _seed(rig):
    def setup():
        yield from rig.fs.mkdir("/home")
        for path in PATHS:
            yield from rig.fs.write_file(path, b"secret " + path.encode())

    rig.run(setup())


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def verb_sweep() -> None:
    rig = _mount()
    ctl = open_control(rig)
    _seed(rig)

    def scenario():
        status = yield from ctl.status()
        _require(status["texp"] == 30.0,
                 f"status reports texp {status['texp']!r}, expected 30.0")

        # Texp retarget: entries cached under 30 s must die under 1 s.
        yield from ctl.set_texp(1.0)
        yield rig.sim.timeout(2.0)
        _require(len(rig.fs.key_cache) == 0,
                 "cache entries outlived the tightened Texp")

        # Generic runtime update + protected-prefix edits.
        yield from ctl.update(prefetch="dir:3")
        yield from ctl.add_dir("/vault")
        status = yield from ctl.status()
        _require("/vault" in status["protected_prefixes"],
                 "add_dir did not land in the live policy")
        yield from ctl.remove_dir("/vault")

        # Drain sheds new work before key material moves; admit restores.
        yield from ctl.drain()
        try:
            yield from rig.fs.read(PATHS[0], 0, 8)
        except OverloadSheddedError:
            pass
        else:
            raise AssertionError("read served while frontend draining")
        yield from ctl.admit()
        data = yield from rig.fs.read(PATHS[0], 0, 6)
        _require(data == b"secret", "post-admit read returned wrong bytes")

        # Rotation keeps the live device working across a cold fetch.
        yield from ctl.rotate_secret(rig.services.device_id)
        rig.fs.key_cache.evict_all()
        data = yield from rig.fs.read(PATHS[1], 0, 6)
        _require(data == b"secret", "post-rotation cold read failed")

        # Observability verbs return real data.
        page = yield from ctl.tail_trace(cursor=0, limit=10)
        _require(page["ops"], "tail_trace returned no spans under tracing")
        metrics = yield from ctl.metrics()
        _require(metrics["channels"]["calls"] > 0,
                 "metrics snapshot shows no channel traffic")
        return None

    rig.run(scenario())
    verbs = {action["verb"] for action in ctl.server.actions}
    _require({"set_texp", "drain", "admit", "rotate_secret"} <= verbs,
             f"admin action log incomplete: {sorted(verbs)}")
    print("control-smoke: verb sweep OK")


def revoke() -> None:
    # Revocation: cold reads refused at the service after the verb.
    rig = _mount()
    ctl = open_control(rig)
    _seed(rig)

    def scenario():
        yield from ctl.revoke(rig.services.device_id)
        rig.fs.key_cache.evict_all()
        try:
            yield from rig.fs.read(PATHS[0], 0, 8)
        except RevokedError:
            return True
        return False

    _require(rig.run(scenario()), "cold read served after revocation")
    print("control-smoke: revocation kill switch OK")


def fleet_arm() -> None:
    result = run_fleet(
        devices=8,
        duration=6.0,
        seed=b"ci-control-smoke",
        frontend={"workers": 4, "policy": "drr"},
        control=[
            ControlEvent(at=1.0, verb="set_texp", params={"texp": 2.0}),
            ControlEvent(at=2.0, verb="revoke",
                         params={"device_id": "dev-00003"}),
        ],
    )
    log = result.control_log
    _require([entry["verb"] for entry in log] == ["set_texp", "revoke"],
             f"fleet control log incomplete: {log}")
    _require(all("error" not in entry for entry in log),
             f"scripted control event failed: {log}")
    victim = next(s for s in result.stats if s.device_id == "dev-00003")
    _require(victim.revoked > 0,
             "revoked fleet device recorded no refused requests")
    summary = result.summary()
    _require(summary["revoked"] == victim.revoked,
             "summary revoked counter disagrees with device stats")
    print(f"control-smoke: fleet arm OK "
          f"(revoked refusals={victim.revoked}, "
          f"completed={summary['completed']})")


def main() -> int:
    verb_sweep()
    revoke()
    fleet_arm()
    print("control-smoke: all stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
