"""The four benchmark workloads.

Each workload is closed-loop with one client: one op at a time, in one
process (``cli-commands`` runs each op as one child process).  ``setup``
builds every input from the seed and returns a state; ``passes`` then yields
lists of ``(kind, op)`` for ever.  The runner times each op and stops at the
first pass boundary after the run's time is up, so every run measures whole
passes and the op mix is the same in every run.

An op returns a note (what it measured, and for ``decided_share`` how many
verdicts it read and how many were definite) or raises ``Mismatch`` when the
library disagrees with a reference answer that does not come from the code
under test.  Library calls go through module attributes at call time, so a
traced run sees them.
"""
from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import families as fam


class Mismatch(Exception):
    """The library's answer disagrees with the benchmark's reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def cert_body(cert) -> str:
    """Certificate JSON exactly as ``bicatkit localize --format json`` writes it."""
    return json.dumps(cert.to_json(), indent=2, sort_keys=True) + "\n"


class Workload:
    name = ""
    tail_q = 0.5  # the percentile reported as tail_ms

    def setup(self, lib, seed: int, root: Path):
        raise NotImplementedError

    def passes(self, state):
        raise NotImplementedError

    def start_up(self, state, tracer) -> None:
        """Extra spans a traced run records before its ops."""

    def close(self, state) -> None:
        """Release what setup made outside the process."""

    def peak_rss_mb(self, state) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- validate-tables ------------------------------------------------------------

# (family, n, mutation carried by the mutated copy); every mutation kind once
VALIDATE_POOL = (
    ("chain", 4, "compose-retarget"),
    ("chain", 8, "extra-arrow"),
    ("chain", 12, "extra-cell"),
    ("chain_z2", 4, "vcomp-retarget"),
    ("chain_z2", 7, "zz-is-z"),
    ("chain_z2", 10, "whisker-to-identity"),
    ("chaotic", 3, "extra-cell"),
    ("chaotic", 5, "compose-retarget"),
    ("chaotic", 7, "extra-arrow"),
    ("chaotic_z2", 3, "whisker-to-identity"),
    ("chaotic_z2", 5, "rwhisk-retarget"),
    ("chaotic_z2", 7, "zz-is-z"),
)
# three small unmutated tables more make a pass 27 ops long, so that the
# median lands in the middle of the four tables that cost about 5 ms, not at
# the edge of a group of tables of equal cost
VALIDATE_EXTRA = (("chain", 3), ("chaotic", 2), ("chain_z2", 3))


class ValidateTables(Workload):
    name = "validate-tables"
    tail_q = 0.90

    def setup(self, lib, seed: int, root: Path):
        tables = []
        for family, n, mutation in VALIDATE_POOL:
            doc = fam.generate(family, n, seed)
            bad = fam.mutate(doc, mutation, seed)
            tables.append((doc.name, doc.text(), None, fam.witness_count(doc)))
            expected = fam.MUTATION_BY_NAME[mutation].expected
            tables.append((bad.name, bad.text(), expected, fam.witness_count(bad)))
        for family, n in VALIDATE_EXTRA:
            extra = fam.generate(family, n, seed)
            tables.append((extra.name, extra.text(), None, fam.witness_count(extra)))
        random.Random(f"{seed}:validate-order").shuffle(tables)
        state = {"lib": lib, "tables": tables}
        small = min(tables, key=lambda t: len(t[1]))
        self._op(state, *small)()  # warm-up
        return state

    def _op(self, state, name, text, expected, witnesses):
        lib = state["lib"]

        def op():
            pres = lib.presentation.load_presentation_with_sigma(text, name)
            report = lib.core.validate_bicategory(pres.bicategory)
            if expected is None:
                expect(report.ok, f"{name}: unmutated table reports {sorted(report.axioms())}")
            else:
                expect(
                    expected in report.axioms(),
                    f"{name}: expected {expected}, got {sorted(report.axioms())}",
                )
            return {"witnesses": witnesses, "decided": 1, "queries": 1}

        return op

    def passes(self, state):
        ops = [("clean" if t[2] is None else "mutated", self._op(state, *t)) for t in state["tables"]]
        while True:
            yield ops


# -- localize-replay --------------------------------------------------------------

# chaotic(5) is left out: one op takes about 7 s, a third of a run
LOCALIZE_POOL = (("chaotic", 3), ("chaotic", 4), ("chaotic_z2", 3))


class LocalizeReplay(Workload):
    name = "localize-replay"
    tail_q = 0.80

    def setup(self, lib, seed: int, root: Path):
        inputs = []
        for family, n in LOCALIZE_POOL:
            doc = fam.generate(family, n, seed, marked=True)
            probes = fam.chaotic_probe_count(n, family.endswith("_z2"))
            inputs.append((doc.name, doc.text(), probes))
        random.Random(f"{seed}:localize-order").shuffle(inputs)
        state = {"lib": lib, "inputs": inputs, "certs": {}}
        self._op(state, *min(inputs, key=lambda t: t[2]))()  # warm-up
        return state

    def _op(self, state, name, text, n_probes):
        lib = state["lib"]

        def load():
            """Parse, validate and mark, as every CLI command does first."""
            pres = lib.presentation.load_presentation_with_sigma(text, name)
            expect(lib.core.validate_bicategory(pres.bicategory).ok, f"{name}: not valid")
            return lib.sigma.make_sigma(pres.bicategory, pres.sigma_names)

        def probes(sigma):
            found = lib.ho.enumerate_probes(
                sigma, lib.localize.default_probe_targets(sigma), include_self=True
            )
            expect(
                len(found.probes) == n_probes,
                f"{name}: {len(found.probes)} probes, closed form gives {n_probes}",
            )
            return found

        def op():
            report = lib.sigma.sigma_report(load(), max_len=4)
            expect(report["three_for_two"]["ok"], f"{name}: 3-for-2 fails")

            sigma = load()
            cert = lib.localize.localize(sigma, probes(sigma), max_len=4, budget=8)
            expect(cert.ok, f"{name}: localize status {cert.status}")
            body = cert_body(cert)
            first = state["certs"].setdefault(name, body)
            expect(body == first, f"{name}: certificate bytes differ between ops")

            sigma = load()
            ok, problems = lib.localize.replay_certificate(sigma, json.loads(body), probes(sigma))
            expect(ok and not problems, f"{name}: replay fails: {problems}")

            verdicts = [
                side[key]["verdict"]
                for eq in json.loads(body)["equivalences"]
                for side in (eq["to_id_src"], eq["to_id_dst"])
                for key in ("cancel_left", "cancel_right")
            ]
            decided = sum(v in ("equal", "distinct") for v in verdicts)
            return {"cert_bytes": len(body), "decided": decided, "queries": len(verdicts)}

        return op

    def passes(self, state):
        ops = [(t[0], self._op(state, *t)) for t in state["inputs"]]
        while True:
            yield ops


# -- ho-decide ------------------------------------------------------------------------

DECIDE_PASS = {"equal-kind": 60, "distinct-kind": 45, "free": 45, "extend": 1}
EXTEND_CAP = 60


class HoDecide(Workload):
    name = "ho-decide"
    tail_q = 0.99

    def setup(self, lib, seed: int, root: Path):
        doc = fam.generate("chaotic_z2", 3, seed, marked=True)
        pres = lib.presentation.load_presentation_with_sigma(doc.text(), doc.name)
        bic = pres.bicategory
        sigma = lib.sigma.make_sigma(bic, pres.sigma_names)
        # as `bicatkit ho-eq` builds its probe set
        found = lib.ho.enumerate_probes(
            sigma, lib.localize.default_probe_targets(sigma), include_self=True
        )
        probes = lib.ho.make_probe_set(sigma, list(found.probes))
        want = fam.chaotic_probe_count(3, z2=True)
        expect(len(probes.probes) == want, f"{len(probes.probes)} probes, closed form gives {want}")

        # every term of a sequence on arrow f is an endo-term f => f, since
        # each hom has one arrow; so any list of terms on f chains
        hom = lib.homotopy
        terms: dict[str, list] = {f: [hom.ICell(bic, f"z_{f}")] for f in bic.arrows}
        for h in lib.ho.sample_homotopies(sigma, cap=2000):
            terms[h.f] += [
                h,
                hom.transform_homotopy("post", f"z_{h.g}", h),
                hom.transform_homotopy("pre", f"z_{h.f}", h),
                hom.transform_homotopy("invert", "", h),
            ]
            for r in sorted(bic.arrows):
                if bic.arrow_src(r) == bic.arrow_dst(h.f):
                    t = hom.transform_homotopy("lwhisk", r, h)
                    terms[t.f].append(t)
                if bic.arrow_dst(r) == bic.arrow_src(h.f):
                    t = hom.transform_homotopy("rwhisk", r, h)
                    terms[t.f].append(t)
        selves = [p for p in probes.probes if p.target is bic]
        rng = random.Random(f"{seed}:ho-decide")
        state = {
            "lib": lib,
            "sigma": sigma,
            "probes": probes,
            "terms": terms,
            "arrows": sorted(bic.arrows),
            "extend_fun": rng.choice(selves),
            "rng": rng,
        }
        for kind, op in self._pass(state)[:20]:  # warm-up
            if kind != "extend":
                op()
        return state

    def _pass(self, state):
        lib, sigma, rng = state["lib"], state["sigma"], state["rng"]
        ho = lib.ho

        def seq(f: str, length: int):
            return ho.ho_cell(sigma, [rng.choice(state["terms"][f]) for _ in range(length)])

        def query(kind: str, lhs, rhs):
            def op():
                v = lib.ho.ho_eq(lhs, rhs, state["probes"], 8)
                if kind == "equal-kind":
                    expect(v.verdict != "distinct", "k^-1 k vs id decided Distinct")
                if kind == "distinct-kind":
                    expect(v.verdict != "equal", "z k vs k decided Equal")
                return {"decided": int(v.verdict != "unknown"), "queries": 1}

            return op

        def extend():
            ext = lib.ho.extend_2functor(state["extend_fun"], sigma, cap=EXTEND_CAP)
            expect(ext.report.ok, f"extension of {ext.fun.name} fails its checks")
            return {"pairs": ext.report.checked_pairs}

        ops = []
        for kind, count in DECIDE_PASS.items():
            for _ in range(count):
                f = rng.choice(state["arrows"])
                if kind == "equal-kind":
                    k = seq(f, rng.randint(4, 12))
                    ops.append((kind, query(kind, ho.ho_vcomp(ho.ho_inverse(k), k), ho.ho_identity(sigma, f))))
                elif kind == "distinct-kind":
                    k = seq(f, rng.randint(8, 24))
                    ops.append((kind, query(kind, ho.ho_vcomp(ho.i_cell(sigma, f"z_{f}"), k), k)))
                elif kind == "free":
                    ops.append((kind, query(kind, seq(f, rng.randint(8, 24)), seq(f, rng.randint(8, 24)))))
                else:
                    ops.append((kind, extend))
        rng.shuffle(ops)
        return ops

    def passes(self, state):
        while True:
            yield self._pass(state)


# -- cli-commands ---------------------------------------------------------------------


def _elevator_doc(k: int) -> str:
    """k parallel pairs f_i, g_i on a path X0 -> ... -> Xk, each with two
    cells a_i, b_i : f_i => g_i."""
    lines = ["objects: " + " ".join(f"X{i}" for i in range(k + 1)), "arrows:"]
    for i in range(1, k + 1):
        lines += [f"  f{i} : X{i - 1} -> X{i}", f"  g{i} : X{i - 1} -> X{i}"]
    lines.append("cells:")
    for i in range(1, k + 1):
        lines += [f"  a{i} : f{i} => g{i}", f"  b{i} : f{i} => g{i}"]
    return "\n".join(lines) + "\n"


def _elevator_expr(k: int, order: list[int], cells: dict[int, str]) -> str:
    """Apply cells[i] at position i in the given order, whiskered by the
    arrows already moved (g) or not yet moved (f).  By the exchange law every
    order gives the same 2-cell."""
    done: set[int] = set()

    def path(positions) -> str:
        return ".".join(f"g{j}" if j in done else f"f{j}" for j in positions) or "1"

    layers = []
    for i in order:
        layers.append(f"{path(range(k, i, -1))} * {cells[i]} * {path(range(i - 1, 0, -1))}")
        done.add(i)
    return " ; ".join(layers)


# Runs each command for the parent and reports, with the exit code and
# output, the largest ru_maxrss of its children so far.  A child's ru_maxrss
# also counts the memory of the process that spawned it, so the children are
# spawned from this small process rather than from the benchmark process.
LAUNCHER = """
import json, resource, subprocess, sys
for line in sys.stdin:
    argv, cwd = json.loads(line)
    try:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)
        reply = [proc.returncode, proc.stdout, proc.stderr]
    except subprocess.TimeoutExpired:
        reply = [None, "", "timed out after 120 s"]
    print(json.dumps(reply + [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]), flush=True)
"""


class CliCommands(Workload):
    name = "cli-commands"
    tail_q = 0.85  # falls inside the three ho-eq ops, the slowest of each 12-op pass

    def setup(self, lib, seed: int, root: Path):
        work = root / ".bench_out" / f"cli-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        rng = random.Random(f"{seed}:cli")

        valid = fam.generate("chain_z2", 5, seed)
        (work / "valid.bic").write_text(valid.text())
        (work / "broken.bic").write_text(fam.mutate(valid, "zz-is-z", seed).text())
        marked = fam.generate("chaotic", 3, seed, marked=True)
        (work / "marked.bic").write_text(marked.text())
        z2 = fam.generate("chaotic_z2", 3, seed, marked=True)
        (work / "z2.bic").write_text(z2.text())
        src = fam.generate("chaotic", 2, seed, marked=True)
        (work / "src.bic").write_text(src.text())

        # a cylinder on a marked s : W -> Z over d : B -> W with alpha0 = z_x,
        # alpha1 = id_x; its hat is the unique c with s * c = z_x, so c = z_d
        b, w, z = rng.sample(z2.objects, 3)
        arrow = {(x, y): a for a, (x, y) in z2.arrows.items()}
        d, s, x = arrow[(b, w)], arrow[(w, z)], arrow[(b, z)]
        cylinder = f"cylinder C = ({w}, {z}, {d}, {d}, {x}, {s}, z_{x}, id_{x})\n"
        (work / "equal.txt").write_text(
            cylinder + "homotopy H = cyl(C)\nhomotopy K = invert(H)\n"
            f"lhs = [K, H]\nrhs = id {d}\n"
        )
        # equal by the post-split rule: [z_d o H] = [I(z_d)] o [H]
        (work / "post.txt").write_text(
            cylinder + f"homotopy H = cyl(C)\nhomotopy P = post(z_{d}, H)\n"
            f"lhs = [P]\nrhs = [i(z_{d}), H]\n"
        )
        (work / "distinct.txt").write_text(f"lhs = [i(z_{d})]\nrhs = id {d}\n")
        (work / "hat.txt").write_text(cylinder + "hat = C\n")
        hat_line = f"hat(C) = z_{d}"

        image = dict(zip(src.objects, rng.sample(z2.objects, 2)))
        (work / "f.pf").write_text(
            "map_obj:\n" + "".join(f"  {o} -> {image[o]}\n" for o in src.objects)
            + "map_arr:\n" + "".join(
                f"  {a} -> {arrow[(image[x], image[y])]}\n" for a, (x, y) in src.arrows.items()
            )
        )

        k = 4
        (work / "w.cmp").write_text(_elevator_doc(k))
        cells = {i: f"a{i}" for i in range(1, k + 1)}
        order1 = rng.sample(range(1, k + 1), k)
        order2 = rng.sample(range(1, k + 1), k)
        swapped = dict(cells)
        i = rng.randint(1, k)
        swapped[i] = f"b{i}"

        # the certificate the child must write, computed in this process
        pres = lib.presentation.load_presentation_with_sigma(marked.text(), "marked")
        sigma = lib.sigma.make_sigma(pres.bicategory, pres.sigma_names)
        found = lib.ho.enumerate_probes(sigma, lib.localize.default_probe_targets(sigma))
        cert = cert_body(lib.localize.localize(sigma, found, max_len=4, budget=8))

        e1 = _elevator_expr(k, order1, cells)
        runs = [
            ("validate", ["validate", "valid.bic"], 0, None),
            ("validate", ["validate", "broken.bic"], 1, "W3"),
            ("sigma-check", ["sigma-check", "marked.bic"], 0, "three-for-two: ok"),
            ("localize", ["localize", "marked.bic", "--format", "json", "--out", "cert.json"], 0, None),
            ("localize-replay", ["localize", "marked.bic", "--replay", "cert.json"], 0, "replay ok"),
            ("ho-eq", ["ho-eq", "z2.bic", "equal.txt"], 0, "Equal"),
            ("ho-eq", ["ho-eq", "z2.bic", "post.txt"], 0, "post-split"),
            ("ho-eq", ["ho-eq", "z2.bic", "distinct.txt"], 1, "Distinct"),
            ("hat", ["hat", "z2.bic", "hat.txt"], 0, hat_line),
            ("extend", ["extend", "--functor", "f.pf", "--source", "src.bic", "--target", "z2.bic"], 0,
             "extension of f: ok"),
            ("elevator", ["elevator", "w.cmp", "--expr", e1, "--expr2", _elevator_expr(k, order2, cells)],
             0, "\nequal"),
            ("elevator", ["elevator", "w.cmp", "--expr", e1, "--expr2", _elevator_expr(k, order2, swapped)],
             1, "NOT equal"),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        state = {"work": work, "env": env, "runs": runs, "cert": cert, "launcher": launcher}
        self._op(state, *runs[0])()  # warm-up
        return state

    def _op(self, state, kind, argv, code, needle):
        request = json.dumps([[sys.executable, "-m", "bicatkit.cli", *argv], str(state["work"])])

        def op():
            launcher = state["launcher"]
            launcher.stdin.write(request + "\n")
            launcher.stdin.flush()
            returncode, stdout, stderr, state["children_rss_kb"] = json.loads(launcher.stdout.readline())
            expect(
                returncode == code,
                f"{' '.join(argv[:2])}: exit {returncode}, README gives {code}: {stderr[-300:]}",
            )
            if needle is not None:
                expect(needle in stdout, f"{' '.join(argv[:2])}: output lacks {needle!r}")
            if kind == "localize":
                body = (state["work"] / "cert.json").read_text()
                expect(body == state["cert"], "certificate bytes differ from the in-process run")
            definite = int(kind != "ho-eq" or returncode != 2)
            return {"exit": returncode, "decided": definite, "queries": 1}

        return op

    def passes(self, state):
        ops = [(run[0], self._op(state, *run)) for run in state["runs"]]
        while True:
            yield ops

    def start_up(self, state, tracer) -> None:
        """Five spans each for bare interpreter start-up and for importing the
        CLI, the import timed inside the child."""
        code = "import time; t = time.perf_counter(); import bicatkit.cli; print(time.perf_counter() - t)"
        for _ in range(5):
            idx = tracer.begin("cli.interpreter")
            subprocess.run([sys.executable, "-c", "pass"], env=state["env"], check=True)
            tracer.end(idx)
            idx = tracer.begin("cli.import")
            out = subprocess.run(
                [sys.executable, "-c", code], env=state["env"], check=True,
                capture_output=True, text=True,
            ).stdout
            tracer.end(idx, {"import_ms": float(out) * 1e3})

    def close(self, state) -> None:
        launcher = state["launcher"]
        launcher.stdin.close()
        launcher.wait(timeout=150)
        launcher.stdout.close()
        shutil.rmtree(state["work"], ignore_errors=True)

    def peak_rss_mb(self, state) -> float:
        return state["children_rss_kb"] / 1024


WORKLOADS = {w.name: w for w in (ValidateTables(), LocalizeReplay(), HoDecide(), CliCommands())}
