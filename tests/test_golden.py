"""Every command's exit code, stdout, stderr and written files against the
golden corpus (see golden_corpus.py for the cases and the masking rule)."""

import pytest

import golden_corpus


@pytest.mark.parametrize("name", list(golden_corpus.CASES))
def test_command_output_matches_the_golden_corpus(name, tmp_path):
    case, round_off = golden_corpus.run_case(name, str(tmp_path))
    assert case == golden_corpus.read(name)
    for label, value, bound in round_off:
        assert value < bound, label


def test_the_corpus_holds_one_file_per_case():
    assert sorted(p.stem for p in golden_corpus.GOLDEN.glob("*.json")) == \
        sorted(golden_corpus.CASES)
