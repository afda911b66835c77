"""Analytic secure-key-rate curves over distance for all three protocols.

Sweeps the fiber length, evaluates the decoy-bounded BB84 rate, the
CHSH-based entanglement rate, and the coherent-one-way rate, and writes
one CSV per protocol (same schema as `optiqkd rates`).
"""

from pathlib import Path

import numpy as np

from optiqkd import LinkParams, operating_point
from optiqkd.cli import RATES_CSV_HEADER
from optiqkd.config import default_config, typed

OUT = Path("out")
OUT.mkdir(exist_ok=True)

cfg = default_config()
for kind in ("bb84", "e91", "cow"):
    proto = typed(cfg, "protocol", kind=kind)
    lines = [RATES_CSV_HEADER]
    for d in np.arange(0.0, 201.0, 5.0):
        link = LinkParams(distance_km=float(d))
        q_mu, e_mu, rep = operating_point(link, proto)
        lines.append(f"{d:.10g},{q_mu:.10g},{e_mu:.10g},{rep.r_per_pulse:.10g},"
                     f"{rep.r_finite:.10g},{rep.r_bps:.10g}")
    path = OUT / f"demo_rates_{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"{kind:>5}: wrote {path}")

print("\nBB84 decoy-bounded throughput (bits/s):")
print(f"{'km':>6} {'Q_mu':>12} {'E_mu':>8} {'R (bps)':>12}")
proto = typed(cfg, "protocol", kind="bb84")
for d in (0, 25, 50, 75, 100, 125, 150):
    q_mu, e_mu, rep = operating_point(LinkParams(distance_km=float(d)), proto)
    print(f"{d:>6} {q_mu:>12.4e} {e_mu:>8.4f} {rep.r_bps:>12.4e}")
