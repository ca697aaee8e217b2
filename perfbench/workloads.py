"""The benchmark's workloads.

Each workload builds a sweep of item parameters (set-up), runs one item
through the library's public functions (timed, every call in a span), and
checks the item's outputs apart from the library (untimed).  An item is one
dataset taken from its parameters to a checked verdict.
"""

from __future__ import annotations

import numpy as np

import reference as ref
import sepcert as sc

OPTIMAL = sc.SdpStatus.OPTIMAL


class Verdict:
    """Failed checks of one item.  ``wrong`` lists wrong outputs, which make
    the run incorrect.  ``faults`` lists failures of a known fault in the
    program (see ``check_witness``): the item fails, the run stays correct.
    """

    def __init__(self):
        self.wrong = []
        self.faults = []


def certify(tr, ds, level=1):
    """The library's certify pipeline, one span per stage."""
    layout = tr.call("momentmat.layout_for", sc.layout_for, ds, level=level)
    problem = tr.call("sdpcore.assemble_primal", sc.assemble_primal, layout)
    sol = tr.call("sdpcore.solve", sc.solve, problem)
    tr.count("momentmat.gamma_dim", layout.dim)
    tr.count("momentmat.free_vars", layout.free_var_count)
    tr.count("sdpcore.iterations", sol.iterations)
    tr.count("sdpcore.schur_dim", problem.reduced.n_vars)
    tr.count("sdpcore.block_cube_sum", sum(d ** 3 for d in problem.reduced.block_dims))
    tr.count("sdpcore.non_optimal", int(sol.status is not OPTIMAL))
    return sol, problem


def round_trip(tr, ds, path):
    tr.call("corrdata.write_dataset", sc.write_dataset, ds, path)
    tr.count("corrdata.io_bytes", path.stat().st_size)
    return tr.call("corrdata.read_dataset", sc.read_dataset, path)


def check_witness(v, wit, sol, values, best, best_state, bloch):
    """Dual witness: w.C = 1 on the certified data, separable bound 1 - lambda*,
    and no product state (the library's search and the benchmark's own
    random draws) above that bound + 1e-9.

    The dual certificate proves only 1 - (dual objective) = 1 - lambda* + the
    strong-duality residual.  A product state between the stated bound and
    the proved one is the program's known fault, a stated bound that is too
    tight.  Above the proved bound the witness would be unsound.
    """
    bound = 1.0 - sol.lambda_star
    proved = bound + sol.strong_duality_residual + 1e-9
    dot = ref.witness_dot(wit.coefficients, values)
    if abs(dot - 1.0) > 1e-6:
        v.wrong.append(f"w.C = {dot!r}, not 1 within 1e-6")
    if wit.separable_bound != bound:
        v.wrong.append(f"witness bound {wit.separable_bound!r} != 1 - lambda* {bound!r}")
    own = float(ref.witness_on_products(wit.coefficients, best_state.bloch[None])[0])
    if abs(own - best) > 1e-9:
        v.wrong.append(f"search value {best!r} but its state evaluates to {own!r}")
    top = float(np.max(ref.witness_on_products(wit.coefficients, bloch)))
    for source, value in (("product-state search", best), ("random product state", top)):
        if value > proved:
            v.wrong.append(f"{source} reaches {value!r} > proved bound {proved!r}")
        elif value > bound + 1e-9:
            v.faults.append(f"{source} reaches {value!r} > 1 - lambda* + 1e-9 = "
                            f"{bound + 1e-9!r}")


class QuenchRing:
    """Single flip on an n=32 XX ring over a grid of times before wrap-around."""

    n = 32
    # The front reaches r ~ tJ, so every time stays clear of the antipode
    # r = 16.  At tJ = 2.1712983342872487 the solver stops with
    # numerical_trouble on every run; the time stays in the sweep so that
    # fault is counted as one failed item per sweep.  The items, their
    # search seeds and the check-side draws do not depend on the run's seed,
    # so the witness-bound failures repeat in every run.
    times = (2.1712983342872487, 4.0, 6.0, 8.0, 10.0)
    restarts = 16
    product_draws = 256

    def sweep(self, rng):
        return [{"t": t, "seed": k} for k, t in enumerate(self.times)]

    def run(self, p, tr, io_dir):
        n = self.n
        amps = tr.call("physmodels.quench_amplitudes", sc.quench_amplitudes, n, p["t"])
        ds = tr.call("physmodels.quench_dataset", sc.quench_dataset, amps)
        back = round_trip(tr, ds, io_dir / "quench.json")
        sol, prob = certify(tr, back)
        wit = tr.call("sdpcore.extract_witness", sc.extract_witness, sol, prob)
        best, state = tr.call("seporacle.max_over_product_states", sc.max_over_product_states,
                              wit, n, restarts=self.restarts, seed=p["seed"])
        conc = tr.call("physmodels.concurrence_noise_robustness",
                       sc.concurrence_noise_robustness, amps)
        sw = tr.call("physmodels.optimal_structure_witness", sc.optimal_structure_witness,
                     back, sc.commensurate_grid(n))
        return dict(amps=amps, ds=ds, back=back, sol=sol, wit=wit, best=best, state=state,
                    conc=conc, sw=sw)

    def check(self, p, out):
        v = Verdict()
        phi = ref.quench_amplitudes(self.n, p["t"])
        dev = float(np.max(np.abs(out["amps"].phi - phi)))
        if dev > 1e-8:
            v.wrong.append(f"phi deviates from the Bessel sum by {dev:.2e}")
        if out["back"] != out["ds"]:
            v.wrong.append("dataset changed in the file round trip")
        sol = out["sol"]
        if sol.status is not OPTIMAL or not sol.entangled:
            v.wrong.append(f"quench not certified: {sol.status.value}, "
                           f"lambda* {sol.lambda_star!r}")
            return v
        bloch = ref.random_bloch(np.random.default_rng([p["seed"], 1]), self.product_draws,
                                 self.n)
        check_witness(v, out["wit"], sol, ref.label_values(out["back"]), out["best"],
                      out["state"], bloch)
        conc = ref.best_pair_noise_robustness(phi)
        if abs(out["conc"] - conc) > 1e-9:
            v.wrong.append(f"concurrence robustness {out['conc']!r} != closed form {conc!r}")
        if out["sw"].entangled and not sol.entangled:
            v.wrong.append("structure factor detects entanglement but the SDP does not")
        return v


class ProductSoundness:
    """Random product states at n=4 and n=8, every witness family checked."""

    sweep_size = 40

    def sweep(self, rng):
        items = []
        for k in range(self.sweep_size):
            n = 4 if k % 2 == 0 else 8
            items.append({"n": n, "seed": int(rng.integers(2 ** 31)),
                          "phases": rng.uniform(-np.pi, np.pi, size=(3, n, 3))})
        return items

    def run(self, p, tr, io_dir):
        n = p["n"]
        state = tr.call("seporacle.random_product_state", sc.random_product_state, n, p["seed"])
        ds = tr.call("seporacle.dataset_of", sc.dataset_of, state)
        sol, _ = certify(tr, ds)
        phase = [tr.call("witnesslab.phase_witness_value", sc.phase_witness_value, ds, ph)
                 for ph in (None, p["phases"][0], p["phases"][1])]
        sw = tr.call("physmodels.optimal_structure_witness", sc.optimal_structure_witness,
                     ds, sc.commensurate_grid(n))
        bip = [tr.call("witnesslab.bipartite_witness_value", sc.bipartite_witness_value, ds, ph)
               for ph in (None, p["phases"][2])]
        with tr.span("witnesslab.spin_squeezing_check"):
            squeeze = sc.spin_squeezing_check(ds.collective_moments())
        sub = sc.CorrelationDataset(3, {k: v for k, v in ds.one_items() if k[0] < 3},
                                    {k: v for k, v in ds.two_items() if k[1] < 3})
        cmc = tr.call("witnesslab.cmc_check", sc.cmc_check, sub)
        return dict(state=state, ds=ds, sol=sol, phase=phase, sw=sw, bip=bip, squeeze=squeeze,
                    cmc=cmc)

    def check(self, p, out):
        v = Verdict()
        n, ds = p["n"], out["ds"]
        one, two = ref.product_correlators(out["state"].bloch)
        dev = max(max(abs(v - one[i, a]) for (i, a), v in ds.one_items()),
                  max(abs(v - two[i, a, j, b]) for (i, j, a, b), v in ds.two_items()))
        if dev > 1e-12:
            v.wrong.append(f"product-state correlators off by {dev:.2e}")
        sol = out["sol"]
        if sol.status is not OPTIMAL or sol.lambda_star > 1e-7:
            v.wrong.append(f"separable data: {sol.status.value}, lambda* {sol.lambda_star!r}")
        if min(e.value for e in out["phase"]) < -n - 1e-9:
            v.wrong.append("phase witness below its separable bound -n")
        if out["sw"].value < 2.0 - 1e-9:
            v.wrong.append(f"structure factor sum {out['sw'].value!r} below 2")
        if min(e.value for e in out["bip"]) < -n / 2.0 - 1e-9:
            v.wrong.append("bipartite witness below its separable bound -n/2")
        if max(r.lhs for r in out["squeeze"]) > 1.0 + 1e-9:
            v.wrong.append("a spin-squeezing inequality is violated")
        if out["cmc"].margin < -1e-9:
            v.wrong.append(f"CMC margin {out['cmc'].margin!r} < -1e-9")
        return v


class PartialHierarchy:
    """Haar 3-qubit states with a fraction of correlators dropped, levels 1 and 2.

    The ten states, drop masks and search seeds are drawn once from
    ``panel_seed``, in a fixed order: a level-2 solve takes 17 to 26
    iterations depending on the data, ten items a run are too few to average
    that over fresh draws, the peak memory of the process depends on the
    order of the items, and the witness-bound failures must repeat in every
    run.  The run's seed does not change the items.
    """

    panel_seed = 2024
    panel_size = 10
    restarts = 16
    product_draws = 512

    def __init__(self):
        # Drop fractions stratified over [0.1, 0.4]; 9 one-body + 27 two-body
        # correlators, each kept by its own draw.
        rng = np.random.default_rng(self.panel_seed)
        self.panel = []
        for k in range(self.panel_size):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            frac = 0.1 + 0.3 * (k + rng.random()) / self.panel_size
            self.panel.append({"psi": psi / np.linalg.norm(psi),
                               "keep": rng.random(36) >= frac})
        for item in self.panel:
            item["seed"] = int(rng.integers(2 ** 31))

    def sweep(self, rng):
        return self.panel

    def run(self, p, tr, io_dir):
        full = tr.call("physmodels.state_dataset", sc.state_dataset, p["psi"])
        entries = sorted(full.one_items()) + sorted(full.two_items())
        kept = [e for e, keep in zip(entries, p["keep"]) if keep]
        partial = sc.CorrelationDataset(3, {k: v for k, v in kept if len(k) == 2},
                                        {k: v for k, v in kept if len(k) == 4})
        sol_full, _ = certify(tr, full)
        cmc = tr.call("witnesslab.cmc_check", sc.cmc_check, full)
        sol1, _ = certify(tr, partial)
        sol2, prob2 = certify(tr, partial, level=2)
        wit = ev = best = state = None
        if sol2.entangled:
            wit = tr.call("sdpcore.extract_witness", sc.extract_witness, sol2, prob2)
            ev = tr.call("witnesslab.eval_witness", sc.eval_witness, wit, partial)
            best, state = tr.call("seporacle.max_over_product_states",
                                  sc.max_over_product_states, wit, 3,
                                  restarts=self.restarts, seed=p["seed"])
        return dict(full=full, partial=partial, sol_full=sol_full, cmc=cmc, sol1=sol1,
                    sol2=sol2, wit=wit, ev=ev, best=best, state=state)

    def check(self, p, out):
        v = Verdict()
        own = ref.state_correlators(p["psi"], 3)
        dev = max(abs(v - own[k]) for k, v in
                  list(out["full"].one_items()) + list(out["full"].two_items()))
        if dev > 1e-10:
            v.wrong.append(f"state correlators off by {dev:.2e}")
        sols = (out["sol_full"], out["sol1"], out["sol2"])
        if any(s.status is not OPTIMAL for s in sols):
            v.wrong.append("solve not optimal: " + ", ".join(s.status.value for s in sols))
            return v
        lam_full, lam1, lam2 = (s.lambda_star for s in sols)
        if lam2 < lam1 - 1e-7:
            v.wrong.append(f"level 2 below level 1: {lam2!r} < {lam1!r}")
        if lam1 > lam_full + 1e-7:
            v.wrong.append(f"dropping data raised lambda*: {lam1!r} > {lam_full!r}")
        if not out["cmc"].feasible and not out["sol_full"].entangled:
            v.wrong.append("CMC infeasible but the level-1 SDP finds a completion")
        if out["wit"] is not None:
            values = ref.label_values(out["partial"])
            bloch = ref.random_bloch(np.random.default_rng([p["seed"], 1]),
                                     self.product_draws, 3)
            check_witness(v, out["wit"], out["sol2"], values, out["best"], out["state"], bloch)
            if abs(out["ev"].value - ref.witness_dot(out["wit"].coefficients, values)) > 1e-9:
                v.wrong.append("eval_witness disagrees with the witness sum")
        return v


class ThermalChain:
    """Heisenberg and transverse-field Ising rings, n=10, over a temperature grid."""

    n = 10
    temps_per_model = 4
    models = (("heisenberg", 0.0), ("ising", 1.0))

    def sweep(self, rng):
        # Temperatures log-stratified over [0.2, 4]: entangled at the cold end,
        # separable-compatible at the hot end for both models.
        edges = np.geomspace(0.2, 4.0, self.temps_per_model + 1)
        items = []
        for kind, g in self.models:
            u = rng.random(self.temps_per_model)
            for k in range(self.temps_per_model):
                temp = edges[k] * (edges[k + 1] / edges[k]) ** u[k]
                items.append({"kind": kind, "g": g, "temp": float(temp)})
        return items

    def run(self, p, tr, io_dir):
        n = self.n
        spec = sc.ModelSpec(kind=p["kind"], n=n, g=p["g"])
        ds = tr.call("physmodels.thermal_dataset_ed", sc.thermal_dataset_ed, spec, p["temp"])
        sol, prob = certify(tr, ds)
        sw = tr.call("physmodels.optimal_structure_witness", sc.optimal_structure_witness,
                     ds, sc.commensurate_grid(n))
        wit = ev = None
        if sol.entangled:
            wit = tr.call("sdpcore.extract_witness", sc.extract_witness, sol, prob)
            ev = tr.call("witnesslab.eval_witness", sc.eval_witness, wit, ds)
        return dict(ds=ds, sol=sol, sw=sw, wit=wit, ev=ev)

    def check(self, p, out):
        v = Verdict()
        n, ds, sol = self.n, out["ds"], out["sol"]
        bonds = ref.thermal_bond_correlators(p["kind"], n, p["temp"], p["g"])
        for (i, j, a), want in bonds.items():
            got = ds.two(i, j, sc.AXES[a], sc.AXES[a])
            if abs(got - want) > 1e-8:
                v.wrong.append(f"bond ({i},{j}) axis {a}: {got!r} vs dense ED {want!r}")
                break
        if p["kind"] == "heisenberg":
            spread = max(max(abs(ds.two(i, j, a, a) - ds.two(i, j, sc.AXES[0], sc.AXES[0]))
                             for a in sc.AXES)
                         for i in range(n) for j in range(i + 1, n))
            if spread > 0.0:
                v.wrong.append(f"Heisenberg XX, YY, ZZ differ by {spread:.2e}")
        if sol.status is not OPTIMAL:
            v.wrong.append(f"solve not optimal: {sol.status.value}")
        if out["sw"].entangled and not sol.entangled:
            v.wrong.append(f"structure factor sum {out['sw'].value!r} < 2 but SDP lambda* "
                         f"{sol.lambda_star!r}")
        if out["wit"] is not None:
            dot = ref.witness_dot(out["wit"].coefficients, ref.label_values(ds))
            if abs(dot - 1.0) > 1e-6:
                v.wrong.append(f"w.C = {dot!r}, not 1 within 1e-6")
            if abs(out["ev"].value - dot) > 1e-9:
                v.wrong.append("eval_witness disagrees with the witness sum")
        return v


WORKLOADS = {
    "quench-ring": QuenchRing(),
    "product-soundness": ProductSoundness(),
    "partial-hierarchy": PartialHierarchy(),
    "thermal-chain": ThermalChain(),
}
