"""The README's library examples, run as written."""

import re
from pathlib import Path

import numpy as np

from sidkit.audio_io import load_audio
from sidkit.commands import extract_streams
from sidkit.corpus import default_speaker_specs, generate_synthetic_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    """The python blocks of the README's "Library use" section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_library_use_examples_run(tmp_path, monkeypatch):
    """Both blocks in one namespace, on a synthesized corpus in the working
    directory; the second trains and scores real spectral vectors."""
    blocks = library_blocks()
    assert len(blocks) == 2
    specs = default_speaker_specs(4, seed=0)
    generate_synthetic_corpus(specs, train_utts=8, test_utts=2, utt_seconds=1.0, seed=0,
                              out_dir=tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(blocks[0], namespace)
    result, cfg = namespace["result"], namespace["cfg"]
    assert namespace["run"].speakers == ("spk00", "spk01", "spk02", "spk03")
    assert result.decided_id == result.ranking[0] == "spk03"

    def spectral(*paths):
        return np.concatenate([extract_streams(load_audio(path), cfg)[0] for path in paths])

    train = namespace["manifest"].train_entries
    namespace["alice"], namespace["bob"] = (
        spectral(*(e.path for e in train if e.speaker_id == speaker))
        for speaker in ("spk00", "spk01")
    )
    namespace["features"] = spectral("corpus/spk03/spk03_009.wav")
    exec(blocks[1], namespace)
    stack, log_likelihoods = namespace["stack"], namespace["log_likelihoods"]
    assert stack.sizes == (len(namespace["alice"]), len(namespace["bob"]))
    assert namespace["alice_means"].shape == (8, cfg.spectral.num_cepstra)
    assert len(namespace["alice_trace"]) == cfg.model.em_iterations + 1
    assert log_likelihoods.shape == (len(namespace["features"]), 2)
    assert np.isfinite(log_likelihoods).all()
