"""The four workloads: inputs from a seed, one job, and the checks of its output.

Every workload makes ``VARIANTS`` copies of its problem under renamed and
flipped qubits (:func:`reference.relabel_terms`), and job ``k`` runs copy
``k % VARIANTS``.  The copies have the same physics, so every job does the
same work, and the reference state of the base problem, moved to the
copy's basis indices, checks each of them.  The program only ever sees the
BQPJSON and CSV files written here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

VARIANTS = 4


def spin_glass(rng, n: int) -> dict:
    """Couplings of +-1 on every pair and fields of +-0.5 on every qubit.

    With every magnitude fixed the glasses differ only in signs, which keeps
    the work of a short anneal the same from seed to seed (see README).
    """
    terms = {pair: float(rng.choice((-1.0, 1.0)))
             for pair in itertools.combinations(range(1, n + 1), 2)}
    terms.update({(i,): float(rng.choice((-0.5, 0.5))) for i in range(1, n + 1)})
    return terms


def write_bqpjson(path: Path, n: int, terms: dict, rng) -> None:
    """Spin-domain problem file with scattered variable ids in shuffled order."""
    ids = sorted(int(i) for i in rng.choice(1000, size=n, replace=False))
    linear = [{"id": ids[k[0] - 1], "coeff": c} for k, c in terms.items() if len(k) == 1]
    quadratic = [{"id_tail": ids[k[1] - 1], "id_head": ids[k[0] - 1], "coeff": c}
                 for k, c in terms.items() if len(k) == 2]
    rng.shuffle(linear)
    rng.shuffle(quadratic)
    payload = {"version": "1.0.0", "id": 0, "variable_domain": "spin",
               "variable_ids": ids, "linear_terms": linear,
               "quadratic_terms": quadratic, "metadata": {}}
    path.write_text(json.dumps(payload), encoding="utf-8")


def make_variants(qa, rng, n: int, base: dict, workdir: Path, tag: str) -> list[dict]:
    """Relabelled copies of ``base``, written as problem files and read back."""
    variants = []
    for v in range(VARIANTS):
        perm, flips = rng.permutation(n), rng.integers(0, 2, size=n)
        terms = ref.relabel_terms(base, perm, flips)
        path = workdir / f"{tag}-{v}.json"
        write_bqpjson(path, n, terms, rng)
        model, _ = qa.read_bqpjson(path)
        if dict(model.terms) != terms:
            raise RuntimeError(f"{path} reads back as {dict(model.terms)}, not {terms}")
        variants.append({"path": str(path), "terms": terms, "model": model,
                         "index": ref.relabel_index(n, perm, flips)})
    return variants


def read_sweep(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["points"]


def read_spectrum(path, n: int):
    """The s grid and the (grid, 2**n) levels of a CSV spectrum export."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    s_grid = sorted({float(r["s"]) for r in rows})
    row_of = {s: i for i, s in enumerate(s_grid)}
    levels = np.full((len(s_grid), 1 << n), np.nan)
    for r in rows:
        levels[row_of[float(r["s"])], int(r["level_index"])] = float(r["eigenvalue"])
    return s_grid, levels


def results_failures(label, result, psi) -> list[str]:
    return ref.state_failures(label, result.rho, result.probabilities, psi)


class Sweep5:
    """The five-spin study through the CLI: a 20-point time sweep and a spectrum."""

    name = "sweep5"
    n = 5
    terms = {(1, 2): -1.0, (1, 3): -1.0, (1, 4): 1.0, (2, 3): -1.0,
             (2, 5): 1.0, (3, 4): -1.0, (3, 5): -1.0, (4, 5): -1.0}
    times = "logspace:-1:2:20"
    taus = np.logspace(-1.0, 2.0, 20)
    grid = 101

    def inputs(self, qa, seed, workdir):
        rng = np.random.default_rng(seed)
        return {"workdir": workdir,
                "variants": make_variants(qa, rng, self.n, self.terms, workdir, "five")}

    def _cli(self, qa, args) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return qa.cli.main(args)

    def _run(self, qa, model, times, grid, out_json, out_csv):
        common = ["--model", model, "--schedule", "circular", "--no-timestamp"]
        codes = (
            self._cli(qa, ["sweep", *common, "--times", times, "--order", "4",
                           "--format", "json", "--out", out_json]),
            self._cli(qa, ["spectrum", *common, "--grid", str(grid),
                           "--format", "csv", "--out", out_csv]),
        )
        return {"codes": codes, "sweep": out_json, "spectrum": out_csv}

    def warm(self, qa, inputs):
        w = inputs["workdir"]
        self._run(qa, inputs["variants"][0]["path"], "0.1", 3,
                  str(w / "warm.json"), str(w / "warm.csv"))

    def job(self, qa, inputs, k):
        w = inputs["workdir"]
        return self._run(qa, inputs["variants"][k % VARIANTS]["path"], self.times,
                         self.grid, str(w / "sweep.json"), str(w / "spectrum.csv"))

    def reference(self, seed):
        return [np.abs(ref.evolve(self.n, self.terms, tau, ref.circular_a, ref.circular_b,
                                  1, rtol=1e-10)) ** 2 for tau in self.taus]

    def check(self, reference, inputs, k, output):
        variant = inputs["variants"][k % VARIANTS]
        if output["codes"] != (0, 0):
            return [f"CLI exit codes {output['codes']}"]
        out = ref.sweep_failures(read_sweep(output["sweep"]), self.taus,
                                 [ref.move(p, variant["index"]) for p in reference])
        return out + ref.spectrum_failures(*read_spectrum(output["spectrum"], self.n),
                                           self.n, variant["terms"],
                                           ref.circular_a, ref.circular_b, 1)

    def split(self, qa, inputs):
        model = inputs["variants"][0]["model"]
        return model, float(self.taus[-1]), qa.builtin_schedule("circular"), 4, (1, 64)


class HwTable:
    """A spin glass under the D-Wave fit, as functions and as a table of nodes."""

    name = "hwtable"
    n = 5
    tau = 5.0
    # node spacing 1/36 is no power of two, so step edges never all land on nodes
    nodes = np.linspace(0.0, 1.0, 37)
    # One glass for every seed; the seed draws its relabelled copies.  Across
    # random glasses the table run's successive differences shrink so
    # erratically that it stops at 2048 steps on some and 4096 on others;
    # this one stops at 4096 with a factor 2 to spare on either side.
    glass_seed = 1

    def base(self, seed):
        return spin_glass(np.random.default_rng(self.glass_seed), self.n)

    def inputs(self, qa, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        table = workdir / "dw_table.csv"
        with open(table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "a", "b"])
            for s in self.nodes:
                s = float(s)
                writer.writerow([repr(s), repr(ref.dw_a(s)), repr(ref.dw_b(s))])
        return {"variants": make_variants(qa, rng, self.n, self.base(seed), workdir, "glass"),
                "schedules": (qa.builtin_schedule("dw_quadratic", driver_sign=-1),
                              qa.load_schedule_csv(table, driver_sign=-1))}

    def warm(self, qa, inputs):
        for schedule in inputs["schedules"]:
            qa.simulate_fixed(inputs["variants"][0]["model"], self.tau, schedule, n_steps=2)

    def job(self, qa, inputs, k):
        model = inputs["variants"][k % VARIANTS]["model"]
        return [qa.simulate(model, self.tau, schedule) for schedule in inputs["schedules"]]

    def reference(self, seed):
        base = self.base(seed)
        a_nodes = np.array([ref.dw_a(float(s)) for s in self.nodes])
        b_nodes = np.array([ref.dw_b(float(s)) for s in self.nodes])
        return (
            ref.evolve(self.n, base, self.tau, ref.dw_a, ref.dw_b, -1, breaks=(ref.DW_KINK,)),
            ref.evolve(self.n, base, self.tau,
                       lambda s: np.interp(s, self.nodes, a_nodes),
                       lambda s: np.interp(s, self.nodes, b_nodes),
                       -1, breaks=self.nodes[1:-1]),
        )

    def check(self, reference, inputs, k, output):
        index = inputs["variants"][k % VARIANTS]["index"]
        return [msg for label, result, psi in zip(("function", "table"), output, reference)
                for msg in results_failures(label, result, ref.move(psi, index))]

    def split(self, qa, inputs):
        return inputs["variants"][0]["model"], self.tau, inputs["schedules"][1], 4, (1, 64)


class Dense9:
    """A 9-qubit spin glass on a short anneal: dense 512 x 512 algebra.

    Under the linear schedule the quadratic fit is exact and the error falls
    steeply with the step count, so every seed converges at 8 steps with a
    wide margin on both sides of the tolerances (see README).
    """

    name = "dense9"
    n = 9
    tau = 0.13

    def base(self, seed):
        return spin_glass(np.random.default_rng(seed), self.n)

    def inputs(self, qa, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        return {"variants": make_variants(qa, rng, self.n, self.base(seed), workdir, "glass"),
                "schedules": (qa.builtin_schedule("linear"),)}

    def warm(self, qa, inputs):
        qa.simulate_fixed(inputs["variants"][0]["model"], self.tau, inputs["schedules"][0],
                          n_steps=1)

    def job(self, qa, inputs, k):
        return qa.simulate(inputs["variants"][k % VARIANTS]["model"], self.tau,
                           inputs["schedules"][0])

    def reference(self, seed):
        return ref.evolve(self.n, self.base(seed), self.tau, ref.linear_a, ref.linear_b, 1)

    def check(self, reference, inputs, k, output):
        index = inputs["variants"][k % VARIANTS]["index"]
        return results_failures("dense9", output, ref.move(reference, index))

    def split(self, qa, inputs):
        return inputs["variants"][0]["model"], self.tau, inputs["schedules"][0], 4, (1, 4)


class Ladder:
    """Fixed-step ladders on the two closed-form problems at orders 4 and 6."""

    name = "ladder"
    problems = (("field", 1, {(1,): 1.0}), ("pair", 2, {(1, 2): 2.0}))
    orders = (4, 6)
    rungs = (4, 8, 16, 32, 64)

    @staticmethod
    def tau_of(seed) -> float:
        # On [1.9, 2.5] every rung from 4 to 64 is in the asymptotic regime,
        # where each doubling cuts the distance by 2**4 or more.  Near some
        # other times (field: 3.08, 6.17) the leading error term nearly
        # vanishes and single rungs show pre-asymptotic rates down to 2.9.
        return float(math.exp(np.random.default_rng(seed).uniform(math.log(1.9), math.log(2.5))))

    def inputs(self, qa, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        return {"tau": self.tau_of(seed),
                "variants": {label: make_variants(qa, rng, n, terms, workdir, label)
                             for label, n, terms in self.problems},
                "schedules": (qa.builtin_schedule("circular"),)}

    def warm(self, qa, inputs):
        for label, _, _ in self.problems:
            for order in self.orders:
                qa.simulate_fixed(inputs["variants"][label][0]["model"], inputs["tau"],
                                  inputs["schedules"][0], order=order, n_steps=1)

    def job(self, qa, inputs, k):
        return {(label, order): [
                    qa.simulate_fixed(inputs["variants"][label][k % VARIANTS]["model"],
                                      inputs["tau"], inputs["schedules"][0],
                                      order=order, n_steps=n)
                    for n in self.rungs]
                for label, _, _ in self.problems for order in self.orders}

    def reference(self, seed):
        tau = self.tau_of(seed)
        return {label: ref.evolve(n, terms, tau, ref.circular_a, ref.circular_b, 1, rtol=1e-13)
                for label, n, terms in self.problems}

    def check(self, reference, inputs, k, output):
        out = []
        for (label, order), results in output.items():
            psi = ref.move(reference[label], inputs["variants"][label][k % VARIANTS]["index"])
            out += ref.ladder_failures(f"{label} order {order}", self.rungs,
                                       [r.rho for r in results],
                                       [r.probabilities for r in results], psi)
        return out

    def split(self, qa, inputs):
        return (inputs["variants"]["pair"][0]["model"], inputs["tau"],
                inputs["schedules"][0], 6, (1, 16))


WORKLOADS = {w.name: w for w in (Sweep5(), HwTable(), Dense9(), Ladder())}
