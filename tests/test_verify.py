import pytest

import depcomp.verify as verify


def test_suite_names_cover_all_property_families():
    assert verify.SUITE_NAMES == (
        "roundtrip",
        "uniqueness",
        "k2ambiguity",
        "activation",
        "conspiracy",
        "mi",
        "fork",
        "gap",
        "concentration",
    )


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_suite_passes_clean(name):
    report = verify.run_suite(name, seed=0)
    assert report.name == name
    assert report.passed
    assert len(report.lines) >= 1
    assert all(line.startswith("ok") for line in report.lines)


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_suite_detects_injected_fault(name, monkeypatch):
    # Each suite must actually exercise its property: breaking the property
    # through the hidden hook has to flip the verdict.
    monkeypatch.setattr(verify, "_FAULT", name)
    report = verify.run_suite(name, seed=0)
    assert not report.passed
    assert any(line.startswith("FAIL") for line in report.lines)


def test_fault_hook_is_scoped(monkeypatch):
    # A fault aimed at one suite must not disturb the others.
    monkeypatch.setattr(verify, "_FAULT", "roundtrip")
    assert not verify.run_suite("roundtrip", seed=0).passed
    assert verify.run_suite("gap", seed=0).passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nonsense")


def test_seed_changes_derived_cases():
    a = verify.run_suite("uniqueness", seed=0)
    b = verify.run_suite("uniqueness", seed=1)
    assert a.passed and b.passed
    assert a.lines != b.lines


@pytest.mark.parametrize("seed", [-1, 2**64 - 2000, 1.5, True])
def test_seed_must_be_an_integer_in_range(seed):
    with pytest.raises(ValueError, match="seed out of range"):
        verify.run_suite("uniqueness", seed=seed)
