import pytest

from vfkit.presets import PRESETS, preset_names, run_preset

# the corpus keeps one stated fact that honest computation refutes: zero-sum
# words that spend time on the vanishing field move axis points, so the
# fixed-time orbit through (1,0) is one-dimensional, not a singleton
KNOWN_REFUTED = {("hyperbola-fixed-time", "axis-singleton")}


@pytest.mark.parametrize("name", preset_names())
def test_preset_facts(name):
    run = run_preset(name, seed=0)
    for fact, result in run.results:
        if (name, fact.fact_id) in KNOWN_REFUTED:
            assert not result.ok, (
                "the refuted corpus fact unexpectedly passed; "
                f"measured: {result.measured}"
            )
            # the sampled displacement is macroscopic, not a tolerance artifact
            assert "dimension 1" in result.measured or "one-dimensional" in result.measured
        else:
            assert result.ok, (
                f"{name}entry {fact.fact_id} [{fact.tag}]\n"
                f"expected: {result.expected}\nmeasured: {result.measured}"
            )


def test_every_preset_has_published_fact():
    for preset in PRESETS.values():
        tags = {f.tag for f in preset.facts}
        assert "published" in tags
        assert tags <= {"published", "trivial", "derived"}


def test_deterministic_runs():
    a = run_preset("nine-orbits", seed=3)
    b = run_preset("nine-orbits", seed=3)
    assert [(f.fact_id, r) for f, r in a.results] == [
        (f.fact_id, r) for f, r in b.results
    ]


def test_steering_facts_measure_exact_text():
    run = run_preset("double-integrator")
    measured = {fact.fact_id: result.measured for fact, result in run.results}
    assert measured["steer-corner"] == "u1=3.0, u2=-1.0, error=0.00e+00"
    assert measured["steer-loop"] == "u1=-4.0, u2=4.0, error=0.00e+00"
