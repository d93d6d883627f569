"""The benchmark workloads: one spec shape each, why it exists, and the
verdict rows every run of it must report.

The spec files are generated from the benchmark seed; sievesim receives
nothing else.  `replicates` is the run length of one CLI call and was chosen
so that a call takes about two seconds on a 2-core machine, never to make a
verdict pass.
"""

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict          # spec-file keys other than replicates and seed
    replicates: int
    raw_is_count: bool  # CSV `raw` holds counts (False: the ratio K_n(t)/K_n)

    @property
    def n_values(self):
        return [float(v) for v in self.spec["n_values"].split(",")]

    @property
    def grid(self):
        return [float(v) for v in self.spec["grid"].split(",")]

    def write_spec(self, directory: Path, seed: int, replicates: int | None = None) -> Path:
        """Write `<name>.cfg` into directory and return its path."""
        lines = [f"# why: {self.why}"]
        lines += [f"{key} = {value}" for key, value in self.spec.items()]
        lines += [f"replicates = {replicates or self.replicates}", f"seed = {seed}"]
        path = Path(directory) / f"{self.name}.cfg"
        path.write_text("\n".join(lines) + "\n")
        return path

    def expected_rows(self):
        """(stat, n, t) of every verdict row the JSON report must hold."""
        target = self.spec["target"]
        usable = [t for t in self.grid if t > 0.0]
        rows = []
        for n in self.n_values:
            if target in ("A1", "B1"):
                rows += [("ks_normal", n, t) for t in usable]
                rows += [("cov", n, (s, t)) for i, s in enumerate(usable) for t in usable[i + 1:]]
            elif target == "ESF_FLT":
                rows += [("ks_sieve_equality", n, t) for t in self.grid]
                rows += [("ks_normal", n, t) for t in usable]
            elif target == "T22":
                rows += [("ks_ratio", n, t) for t in usable if t < 1.0]
            else:
                raise ValueError(f"no verdict rows known for target {target}")
        return rows


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sieve_deep",
        why="A1 beta(1) sieve at n=1e8,1e12,1e16 on a 4-point grid: occupancy and "
            "sample_binomial dominate, with Gaussian binomials and floor_power's "
            "exact-integer mpmath path",
        spec={"target": "A1", "stick": "beta", "theta": "1.0",
              "n_values": "1e8, 1e12, 1e16", "grid": "0.25, 0.5, 0.75, 1.0",
              "centering": "linear"},
        replicates=1200,
        raw_is_count=True,
    ),
    Workload(
        name="walk_clt",
        why="B1 exp/exp perturbed random walk at n=1e5: prw.simulate_path dominates; "
            "no sieve, Ewens or limit-law sampler runs, so those layers are bypassed",
        spec={"target": "B1", "xi": "exp", "xi_param": "1.0", "eta": "exp",
              "eta_param": "1.0", "n_values": "1e5", "grid": "0.5, 1.0"},
        replicates=200,
        raw_is_count=True,
    ),
    Workload(
        name="esf_equality",
        why="ESF_FLT theta=1 at n=1e5: the dense Feller coupling dominates; its "
            "shallow-n sieve half has no Gaussian binomials and takes floor_power's "
            "fast path",
        spec={"target": "ESF_FLT", "theta": "1.0", "n_values": "1e5", "grid": "0.5, 1.0"},
        replicates=700,
        raw_is_count=True,
    ),
    Workload(
        name="t22_ratio",
        why="T22 ratio mode, exppareto alpha=0.5 sticks at n=1e12: the lattice "
            "first-passage reference sampler dominates and sets the peak memory",
        spec={"target": "T22", "mode": "ratio", "stick": "exppareto", "alpha": "0.5",
              "n_values": "1e12", "grid": "0.5, 1.0"},
        replicates=512,
        raw_is_count=False,
    ),
)}
