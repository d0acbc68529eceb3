"""Screens plan-3r's unit pool, written to plan3r_pool.json beside this file.

    python3 perfbench/screen_plan3r.py

Run from the root of a checkout.  Draws (q0, branch, sign) from a fixed
seed: q0 ~ U(-pi, pi)^3, branch ~ {0, 1}, sign ~ {-1, +1}.  A draw joins
the pool when a 32-step RK4 preview of its path ODE keeps the elbow angle
|q2| within ELBOW_LIMITS, away from the straight (q2 = 0) and folded
(|q2| = pi) arm, and the full unit then passes its gate.  Screening stops
at POOL_SIZE units; every rejected draw is written too, with its reason.

The benchmark only reads the pool, so every version of the library solves
the same units from the same seed.  Screening runs the library, so a
re-screen can change the pool: do it only on purpose, and never between
the two sides of a comparison.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SCREEN_SEED = 0
POOL_SIZE = 40
ELBOW_LIMITS = (0.8, math.pi - 0.4)
PREVIEW_STEPS = 32
RULE = (
    "q0 ~ U(-pi, pi)^3, branch ~ {0, 1}, sign ~ {-1, +1}; kept when a "
    f"{PREVIEW_STEPS}-step RK4 preview of the path ODE keeps |q2| in "
    "elbow_limits and the full unit passes its gate"
)


def preview_rejection(arm, q0, branch, sign):
    """Why a coarse preview of the path rules the draw out, or None."""
    from geoctrl import kinematic
    from geoctrl.errors import GeoctrlError

    lo, hi = ELBOW_LIMITS
    if not lo <= abs(q0[1]) <= hi:
        return "elbow outside limits at q0"
    try:
        directions = kinematic.find_decoupling_fields(arm, q0).directions
        if len(directions) < 2:
            return "fewer than two decoupling directions at q0"
        field = kinematic.candidate_from_direction(arm, q0, directions[branch]).field
        q, ds = q0.copy(), 1.0 / PREVIEW_STEPS
        for _ in range(PREVIEW_STEPS):
            k1 = sign * field(q)
            k2 = sign * field(q + 0.5 * ds * k1)
            k3 = sign * field(q + 0.5 * ds * k2)
            k4 = sign * field(q + ds * k3)
            q = q + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not lo <= abs(q[1]) <= hi:
                return "preview path leaves elbow limits"
    except (ValueError, GeoctrlError) as exc:
        return f"branch lost in preview: {type(exc).__name__}"
    return None


def main():
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import geoctrl

    from workloads import Plan3R

    wl = Plan3R(None)
    rng = np.random.default_rng(SCREEN_SEED)
    units, rejected = [], []
    while len(units) < POOL_SIZE:
        q0 = rng.uniform(-math.pi, math.pi, size=3)
        branch, sign = int(rng.integers(2)), float(rng.choice([-1.0, 1.0]))
        unit = {"q0": q0.tolist(), "branch": branch, "sign": sign}
        reason = preview_rejection(wl.arm, q0, branch, sign)
        if reason is None:
            try:
                reason = wl.check(unit, wl.solve(wl.unit(unit)))
            except Exception as exc:  # a failing unit is a rejection, with its reason
                reason = f"gate: {type(exc).__name__}: {exc}"
            else:
                reason = reason and f"gate: {reason}"
        print(f"draw {len(units) + len(rejected)}: {reason or 'kept'}", flush=True)
        if reason is None:
            units.append(unit)
        else:
            rejected.append({**unit, "reason": reason})

    reasons = {}
    for r in rejected:
        key = r["reason"].split(":")[0]
        reasons[key] = reasons.get(key, 0) + 1
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    pool = {
        "rule": RULE,
        "screen_seed": SCREEN_SEED,
        "elbow_limits": list(ELBOW_LIMITS),
        "preview_steps": PREVIEW_STEPS,
        "screened_at": {"commit": git.stdout.strip() or "unknown", "geoctrl": geoctrl.__version__},
        "drawn": len(units) + len(rejected),
        "kept": len(units),
        "rejected_by_reason": reasons,
        "units": units,
        "rejected": rejected,
    }
    (HERE / "plan3r_pool.json").write_text(json.dumps(pool, indent=1) + "\n")
    print(f"kept {len(units)} of {pool['drawn']} draws; rejected {reasons}")


if __name__ == "__main__":
    main()
