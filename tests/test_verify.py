"""The self-check registry: coverage, selection, determinism."""

import dataclasses
import json

import pytest

from lacunary import verify
from lacunary.cli import main

EXPECTED_PREFIXES = ("core.", "bits.", "dyadic.", "contfrac.", "stern.",
                     "qseries.", "automaton.", "cli.")


class TestRegistry:
    def test_names_unique_and_prefixed(self):
        names = [name for name, _ in verify.CHECKS]
        assert len(names) == len(set(names))
        for name in names:
            assert name.startswith(EXPECTED_PREFIXES), name

    def test_every_module_area_covered(self):
        names = {name.split(".")[0] for name, _ in verify.CHECKS}
        assert names == {p.rstrip(".") for p in EXPECTED_PREFIXES}

    def test_registry_size(self):
        assert len(verify.CHECKS) == 44

    def test_coverage_check_fails_on_one_lost_check(self, monkeypatch):
        monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:-2] + verify.CHECKS[-1:])
        [result] = verify.run_checks(names=["cli.coverage"])
        assert not result.ok and result.detail == "check registry changed size"


class TestRunChecks:
    def test_selection_keeps_canonical_order(self):
        picked = ["stern.carlitz-identity", "core.ring-axioms"]
        results = verify.run_checks(names=picked)
        assert [r.name for r in results] == ["core.ring-axioms", "stern.carlitz-identity"]
        assert all(r.ok for r in results)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown check names"):
            verify.run_checks(names=["core.ring-axioms", "nope.missing"])

    def test_crashing_check_is_a_failure(self, monkeypatch):
        def crash(level, rng):
            raise ValueError("boom")

        monkeypatch.setattr(verify, "CHECKS", [
            ("core.crash", crash),
            ("core.ring-axioms", verify.check_ring_axioms),
        ])
        results = verify.run_checks()
        assert [(r.name, r.ok) for r in results] == [
            ("core.crash", False), ("core.ring-axioms", True)]
        assert results[0].detail == "ValueError: boom"
        assert main(["verify", "--json"]) == 1

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="unknown level"):
            verify.run_checks(level="exhaustive")

    def test_seed_determinism(self):
        picked = ["dyadic.digit-lemma-iv", "qseries.support-aperiodic"]
        a = verify.run_checks(seed=11, names=picked)
        b = verify.run_checks(seed=11, names=picked)
        assert [(r.name, r.ok, r.detail) for r in a] == [(r.name, r.ok, r.detail) for r in b]

    def test_cheap_subset_green(self):
        picked = [
            "core.reduce-mod2-homomorphism",
            "bits.lucas-support-count",
            "dyadic.roundtrip-canonical",
            "contfrac.determinant-identity",
            "stern.extended-doubling",
            "qseries.term-count",
            "automaton.padding-stability",
            "cli.deterministic-output",
        ]
        results = verify.run_checks(names=picked)
        assert all(r.ok for r in results), [r.name for r in results if not r.ok]
        assert all(r.seconds >= 0 for r in results)
        assert all(r.detail for r in results)


class TestAutomatonFailures:
    """The automaton checks fail on a doctored machine and name the state
    at fault by its label text."""

    @staticmethod
    def _doctor(monkeypatch, tag, change):
        # change(d) replaces the tag-machine of 1/3; every other one is built
        real = verify.build_dfao

        def build(w, t="f", depth=None):
            d = real(w, t, depth)
            return change(d) if (w.describe(), t) == ("1/3", tag) else d

        monkeypatch.setattr(verify, "build_dfao", build)

    def test_padding_stability_names_the_state(self, monkeypatch):
        # (f, 1), state 2, steps to dead (output 0) on 0 and to (f, 2)
        # (output 1) on 1; swapped, its 0-step changes the output
        def swap(d):
            assert d.texts([2]) == ["(f, 1)"] and d.out[2] == 0
            step = d.step.copy()
            step[2] = step[2, ::-1]
            return dataclasses.replace(d, step=step)

        self._doctor(monkeypatch, "f", swap)
        [result] = verify.run_checks(names=["automaton.padding-stability"])
        assert not result.ok and result.detail == "zero step changes output at (f, 1)"

    def test_kernel_closure_names_the_state(self, monkeypatch):
        # (g, 0) reads 1, 1, 0 through (f, 1) and (f, 2) into (g, 1); with
        # the output of (g, 1) flipped, the odd subsequence of (g, 0) is no
        # state's prefix
        def flip(d):
            assert d.texts([0, 1]) == ["(g, 0)", "(g, 1)"]
            out = d.out.copy()
            out[1] ^= 1
            return dataclasses.replace(d, out=out)

        self._doctor(monkeypatch, "g", flip)
        [result] = verify.run_checks(names=["automaton.kernel-closure"])
        assert not result.ok and result.detail == "odd subsequence of (g, 0) escapes the kernel"


class TestRender:
    def test_text_report(self):
        results = verify.run_checks(names=["core.ring-axioms"])
        text = verify.render_report(results)
        assert "PASS" in text and "1/1 checks passed" in text

    def test_json_report(self):
        results = verify.run_checks(names=["core.ring-axioms", "bits.lucas-pascal-row"])
        obj = json.loads(verify.render_report(results, as_json=True))
        assert obj["passed"] == 2 and obj["failed"] == 0
        assert obj["checks"][0]["ok"] is True
        for entry, r in zip(obj["checks"], results):
            assert type(entry["seconds"]) is float and entry["seconds"] >= 0
            assert entry["seconds"] == r.seconds

    def test_failure_rendering(self):
        failed = [verify.CheckResult("core.ring-axioms", False, "boom", 0.0)]
        text = verify.render_report(failed)
        assert "FAIL" in text and "0/1 checks passed" in text
