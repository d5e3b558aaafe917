"""The benchmark's own checks: generators, mutation catalogue, closed forms,
certificate determinism and the runner's contract.

    PYTHONPATH=src python -m pytest bench -q
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bicatkit.core import validate_bicategory
from bicatkit.ho import enumerate_2functors, enumerate_probes
from bicatkit.localize import default_probe_targets, localize, replay_certificate
from bicatkit.presentation import load_presentation_with_sigma
from bicatkit.sigma import make_sigma

import families as fam
import workloads

ROOT = Path(__file__).resolve().parent.parent

SIZES = {"chain": (2, 4, 6), "chain_z2": (2, 4, 5), "chaotic": (1, 3, 4), "chaotic_z2": (1, 3)}


def load(doc, name=None):
    return load_presentation_with_sigma(doc.text(), name or doc.name)


@pytest.mark.parametrize("family", fam.FAMILIES)
@pytest.mark.parametrize("seed", (0, 7))
def test_unmutated_tables_validate_ok(family, seed):
    for n in SIZES[family]:
        report = validate_bicategory(load(fam.generate(family, n, seed)).bicategory)
        assert report.ok, (family, n, report.violations[:3])


@pytest.mark.parametrize("family", fam.FAMILIES)
@pytest.mark.parametrize("seed", (0, 7, 21))
def test_every_mutation_reports_its_expected_axiom(family, seed):
    for n in (4, 5):
        doc = fam.generate(family, n, seed)
        for mutation in fam.mutations_for(family):
            report = validate_bicategory(load(fam.mutate(doc, mutation.name, seed)).bicategory)
            assert mutation.expected in report.axioms(), (doc.name, mutation.name, report.axioms())


def test_workload_pool_mutations_match_the_catalogue():
    for family, _, mutation in workloads.VALIDATE_POOL:
        assert mutation in {m.name for m in fam.mutations_for(family)}
    assert {m for _, _, m in workloads.VALIDATE_POOL} == set(fam.MUTATION_BY_NAME)


def test_generation_is_seeded():
    a, b = fam.generate("chaotic_z2", 4, 3), fam.generate("chaotic_z2", 4, 3)
    assert a.text() == b.text()
    assert fam.mutate(a, "zz-is-z", 3).text() == fam.mutate(b, "zz-is-z", 3).text()
    assert a.text() != fam.generate("chaotic_z2", 4, 4).text()
    assert fam.witness_count(a) == fam.witness_count(fam.generate("chaotic_z2", 4, 4))


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_chaotic_2functor_count_closed_form(n, m):
    src = load(fam.generate("chaotic", n, 0)).bicategory
    dst = load(fam.generate("chaotic", m, 1)).bicategory
    assert len(enumerate_2functors(src, dst)) == fam.chaotic_2functor_count(n, m)


@pytest.mark.parametrize("family,n", [("chaotic", 2), ("chaotic", 3), ("chaotic", 4), ("chaotic_z2", 2), ("chaotic_z2", 3)])
def test_probe_count_closed_form(family, n):
    pres = load(fam.generate(family, n, 5, marked=True))
    sigma = make_sigma(pres.bicategory, pres.sigma_names)
    found = enumerate_probes(sigma, default_probe_targets(sigma))
    assert len(found.probes) == fam.chaotic_probe_count(n, family.endswith("_z2"))


def _certificate(doc, name):
    pres = load(doc, name)
    sigma = make_sigma(pres.bicategory, pres.sigma_names)
    probes = enumerate_probes(sigma, default_probe_targets(sigma))
    return sigma, probes, workloads.cert_body(localize(sigma, probes, max_len=4, budget=8))


def test_certificates_are_deterministic_and_replay(tmp_path):
    doc = fam.generate("chaotic_z2", 3, 9, marked=True)
    sigma, probes, body = _certificate(doc, "marked")
    assert _certificate(doc, "marked")[2] == body
    assert replay_certificate(sigma, json.loads(body), probes) == (True, [])

    (tmp_path / "marked.bic").write_text(doc.text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "bicatkit.cli", "localize", "marked.bic", "--format", "json", "--out", "cert.json"],
        cwd=tmp_path, env=env, check=True,
    )
    assert (tmp_path / "cert.json").read_text() == body


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ho-decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_runner_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
