import json
import pathlib
import re

import pytest

from vfkit.cli import EXIT_FACTS
from vfkit.presets import PRESETS, run_preset

from conftest import CLI, fresh_process

# every fact's text at seed 0, one entry per fact in corpus order
CORPUS_SEED0 = pathlib.Path(__file__).parent / "data" / "corpus-seed0.json"
# an e-notation number below 1e-12 is float noise, pinned only as being below it
_NOISE = re.compile(r"[-+]?\d+(?:\.\d+)?e[-+]\d+")

# the corpus keeps one stated fact that honest computation refutes: zero-sum
# words that spend time on the vanishing field move axis points, so the
# fixed-time orbit through (1,0) is one-dimensional, not a singleton
KNOWN_REFUTED = {("hyperbola-fixed-time", "axis-singleton")}


@pytest.mark.parametrize("name", list(PRESETS))
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


def test_run_all_fails_only_the_refuted_fact_under_any_hash_seed(tmp_path):
    # ``vfkit examples --run-all``, as a user runs it, at two hash seeds:
    # one designed mismatch, and the same bytes whatever the set order
    runs = [fresh_process(CLI, "examples", "--run-all", "--format", "json", cwd=tmp_path,
                          hash_seed=seed, check=False) for seed in (0, 12345)]
    assert [run.returncode for run in runs] == [EXIT_FACTS, EXIT_FACTS]
    assert runs[0].stdout == runs[1].stdout
    failing = [(run["preset"], fact["id"])
               for run in json.loads(runs[0].stdout)["results"]["runs"]
               for fact in run["facts"] if not fact["ok"]]
    assert failing == sorted(KNOWN_REFUTED)


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


@pytest.fixture(scope="module")
def corpus_seed0():
    return [dict(preset=name, id=fact.fact_id, tag=fact.tag, description=fact.description,
                 expected=result.expected, ok=result.ok, measured=result.measured)
            for name in PRESETS for fact, result in run_preset(name, seed=0).results]


def test_fact_text_carries_no_numpy_repr(corpus_seed0):
    # np.float64(...) prints only under numpy >= 2, so such text would
    # depend on the numpy release
    assert [(f["preset"], f["id"]) for f in corpus_seed0
            if "np." in f["expected"] + f["measured"]] == []


def _noise_free(text):
    return _NOISE.sub(lambda m: "<1e-12" if abs(float(m.group())) < 1e-12 else m.group(), text)


def test_corpus_text_is_pinned(corpus_seed0):
    pinned = json.loads(CORPUS_SEED0.read_text())
    normal = [[dict(f, measured=_noise_free(f["measured"])) for f in facts]
              for facts in (corpus_seed0, pinned)]
    assert normal[0] == normal[1]
