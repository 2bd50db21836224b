"""Configuration defaults, file parsing, and validation."""

import dataclasses
import re
from dataclasses import fields

import numpy as np
import pytest

from sidkit.config import (
    _NOTES,
    _SECTIONS,
    DEFAULT_CONFIG_TEXT,
    FusionConfig,
    ModelConfig,
    PreprocessConfig,
    ResidualConfig,
    SpectralConfig,
    ToolkitConfig,
    parse_config,
    render_config,
)


class TestDefaults:
    """The default configuration pins every pipeline constant."""

    def test_snapshot(self):
        cfg = ToolkitConfig()
        assert cfg.preprocess.pre_emphasis == 0.97
        assert cfg.preprocess.frame_len == 160
        assert cfg.preprocess.frame_shift == 80
        assert cfg.preprocess.silence_energy_ratio == 0.06
        assert cfg.residual.lp_order == 17
        assert cfg.residual.num_moments == 6
        assert cfg.spectral.kind == "mfcc"
        assert cfg.spectral.num_filters == 20
        assert cfg.spectral.num_cepstra == 19
        assert cfg.spectral.fft_size == 256
        assert cfg.spectral.lpcc_lp_order == 19
        assert cfg.model.m_spectral == 8
        assert cfg.model.m_residual == 8
        assert cfg.model.em_iterations == 10
        assert cfg.fusion.eta == 0.5

    def test_default_text_matches_defaults(self):
        """Parsing the shipped default file reproduces the in-code defaults."""
        assert parse_config(DEFAULT_CONFIG_TEXT) == ToolkitConfig()

    def test_default_text_lists_every_key_once_in_render_order(self):
        """The shipped file is ``render_config`` of the defaults plus comment
        lines, so every field of every section is listed once, in order."""
        listed = [ln for ln in DEFAULT_CONFIG_TEXT.splitlines() if ln and not ln.startswith("#")]
        assert listed == [ln for ln in render_config(ToolkitConfig()).splitlines() if ln]
        keys = [ln.split(" = ")[0] for ln in listed if not ln.startswith("[")]
        assert keys == [f.name for cls in _SECTIONS.values() for f in fields(cls)]

    def test_every_note_names_a_field(self):
        names = {f.name for cls in _SECTIONS.values() for f in fields(cls)}
        assert set(_NOTES) <= names


class TestParsing:
    def test_partial_file_keeps_other_defaults(self):
        cfg = parse_config("[model]\nm_spectral = 16\n")
        assert cfg.model.m_spectral == 16
        assert cfg.model.m_residual == 8
        assert cfg.preprocess.frame_len == 160

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ToolkitConfig()

    def test_all_sections_override(self):
        text = (
            "[preprocess]\npre_emphasis = 0.9\n"
            "[residual]\nlp_order = 12\n"
            "[spectral]\nkind = lfcc\n"
            "[model]\nem_iterations = 3\n"
            "[fusion]\neta = 0.25\n"
        )
        cfg = parse_config(text)
        assert cfg.preprocess.pre_emphasis == 0.9
        assert cfg.residual.lp_order == 12
        assert cfg.spectral.kind == "lfcc"
        assert cfg.model.em_iterations == 3
        assert cfg.fusion.eta == 0.25

    def test_inline_comments_ignored(self):
        cfg = parse_config("[fusion]\neta = 0.75  # spectral-heavy\n")
        assert cfg.fusion.eta == 0.75

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("[fusion]\ntypo = 1\n")

    def test_removed_seed_key_rejected(self):
        """``[model] seed`` was never read and is no longer a key."""
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("[model]\nseed = 0\n")

    @pytest.mark.parametrize("value", ["false", "False", "no", "0"])
    def test_removed_per_frame_average_false_is_dropped(self, value):
        """Default files and stores written before the key was removed set it
        false; they still parse, equal to the defaults."""
        cfg = parse_config(DEFAULT_CONFIG_TEXT + f"per_frame_average = {value}\n")
        assert cfg == ToolkitConfig()
        assert "per_frame_average" not in render_config(cfg)

    @pytest.mark.parametrize("value", ["true", "True", "yes", "1"])
    def test_removed_per_frame_average_true_is_rejected(self, value):
        with pytest.raises(
            ValueError, match=r"\[fusion\] per_frame_average = true .* always sums over frames"
        ):
            parse_config(f"[fusion]\neta = 0.5\nper_frame_average = {value}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[preprocess]\nframe_len = twenty\n", "[preprocess] frame_len = 'twenty' is not an int"),
            ("[preprocess]\nframe_len = 1%\n", "[preprocess] frame_len = '1%' is not an int"),
            ("[model]\nvariance_floor_factor = lots\n",
             "[model] variance_floor_factor = 'lots' is not a float"),
            ("[fusion]\nper_frame_average = maybe\n",
             "[fusion] per_frame_average = 'maybe' is not a boolean"),
        ],
        ids=["int", "percent-int", "float", "retired-boolean"],
    )
    def test_value_of_the_wrong_type_names_its_key(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(text)

    def test_percent_is_read_literally(self):
        """No interpolation: ``%(x)s`` is part of the value, not a reference."""
        with pytest.raises(ValueError, match=re.escape("got 'mf%(x)s'")):
            parse_config("[spectral]\nkind = mf%(x)s\n")

    def test_missing_section_header_is_value_error(self):
        message = "malformed config: line 1: 'frame_len = 240' comes before any [section] header"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config("frame_len = 240\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[model]\n[fusion]\n[model]\n", "line 3: '[model]' repeats a section"),
            ("[fusion]\neta = 0.5\neta = 0.25\n", "line 3: 'eta = 0.25' repeats a key of its section"),
            ("[fusion]\n\neta\n", "line 3: 'eta' is not 'key = value'"),
        ],
        ids=["duplicate-section", "duplicate-key", "no-value"],
    )
    def test_syntax_error_is_one_line_naming_its_line(self, text, message):
        with pytest.raises(ValueError, match=f"^malformed config: {re.escape(message)}$"):
            parse_config(text)

    @pytest.mark.parametrize(
        "cfg",
        [
            ToolkitConfig(),
            ToolkitConfig(
                preprocess=PreprocessConfig(
                    pre_emphasis=0.1 + 0.2, frame_len=240, frame_shift=120
                ),
                spectral=SpectralConfig(kind="lpcc", num_cepstra=12),
                model=ModelConfig(variance_floor_factor=1e-7),
                fusion=FusionConfig(eta=0.25),
            ),
        ],
        ids=["default", "custom"],
    )
    def test_rendered_config_parses_back_exactly(self, cfg):
        assert parse_config(render_config(cfg)) == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            parse_config("[nonsense]\nx = 1\n")


class TestValidation:
    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            FusionConfig(eta=1.5)

    def test_shift_longer_than_frame(self):
        with pytest.raises(ValueError):
            PreprocessConfig(frame_len=160, frame_shift=200)

    def test_pre_emphasis_range(self):
        with pytest.raises(ValueError):
            PreprocessConfig(pre_emphasis=1.0)

    def test_unknown_spectral_kind(self):
        with pytest.raises(ValueError):
            SpectralConfig(kind="plp")

    def test_cepstra_must_fit_under_filter_count(self):
        with pytest.raises(ValueError):
            SpectralConfig(num_filters=20, num_cepstra=20)

    def test_lfcc_cepstra_must_fit_under_filter_count(self):
        with pytest.raises(ValueError, match="^num_cepstra must be < num_filters "):
            parse_config("[spectral]\nkind = lfcc\nnum_filters = 20\nnum_cepstra = 20\n")

    def test_lpcc_cepstra_may_outnumber_the_unused_filters(self):
        """LPCC builds no filterbank, so ``num_filters`` does not bound its
        cepstra; the predictor order does not either (the recursion runs on)."""
        cfg = parse_config("[spectral]\nkind = lpcc\nnum_filters = 20\nnum_cepstra = 24\n")
        assert (cfg.spectral.num_cepstra, cfg.spectral.lpcc_lp_order) == (24, 19)

    @pytest.mark.parametrize("value", [0, -1])
    def test_cepstra_must_be_positive(self, value):
        with pytest.raises(ValueError, match=f"^num_cepstra must be >= 1, got {value}$"):
            parse_config(f"[spectral]\nnum_cepstra = {value}\n")

    @pytest.mark.parametrize("value", [0, -1])
    def test_lpcc_order_must_be_positive(self, value):
        """An LPCC predictor needs at least one coefficient; the config names
        the key before any audio is read."""
        with pytest.raises(ValueError, match=f"^lpcc_lp_order must be >= 1, got {value}$"):
            parse_config(f"[spectral]\nkind = lpcc\nlpcc_lp_order = {value}\n")

    def test_nonpositive_iterations(self):
        with pytest.raises(ValueError):
            ModelConfig(em_iterations=0)

    @pytest.mark.parametrize("key", ["m_spectral", "m_residual"])
    def test_component_count_must_be_a_power_of_two(self, key):
        """Binary splitting can only reach powers of two, so the config
        rejects any other count, naming the key, before any audio is read."""
        with pytest.raises(ValueError, match=f"{key} must be a power of two, got 6"):
            parse_config(f"[model]\n{key} = 6\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("variance_floor_factor = -1", "variance_floor_factor must be >= 0, got -1.0"),
            ("lbg_split_epsilon = 0", "lbg_split_epsilon must be > 0, got 0.0"),
            ("lbg_split_epsilon = -0.02", "lbg_split_epsilon must be > 0, got -0.02"),
        ],
        ids=["negative-floor", "zero-epsilon", "negative-epsilon"],
    )
    def test_model_schedule_out_of_range(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_config(f"[model]\n{text}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, key",
        [("preprocess", "silence_energy_ratio"), ("model", "variance_floor_factor"),
         ("model", "lbg_split_epsilon")],
    )
    def test_non_finite_float_names_its_key(self, section, key, value):
        message = f"[{section}] {key} = {value} is not a finite float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[preprocess]\nframe_len = 300\n",
             "frame_len = 300 must not exceed [spectral] fft_size = 256"),
            ("[preprocess]\nframe_len = 300\n[spectral]\nkind = lfcc\n",
             "frame_len = 300 must not exceed [spectral] fft_size = 256"),
            ("[preprocess]\nframe_len = 128\n[spectral]\nfft_size = 64\n",
             "frame_len = 128 must not exceed [spectral] fft_size = 64"),
            ("[preprocess]\nframe_len = 16\nframe_shift = 8\n",
             "frame_len = 16 must exceed [residual] lp_order = 17"),
            ("[preprocess]\nframe_len = 160\n[residual]\nlp_order = 160\n",
             "frame_len = 160 must exceed [residual] lp_order = 160"),
            ("[preprocess]\nframe_len = 19\nframe_shift = 8\n[spectral]\nkind = lpcc\n",
             "frame_len = 19 must exceed [spectral] lpcc_lp_order = 19"),
        ],
        ids=["mfcc-fft", "lfcc-fft", "fft-size", "residual-order", "residual-order-equal",
             "lpcc-order"],
    )
    def test_frame_len_must_fit_orders_and_fft(self, text, message):
        """A frame that no predictor or FFT can take is rejected when the
        config is read, naming both keys, before any audio is read."""
        with pytest.raises(ValueError, match=re.escape(f"[preprocess] {message}")):
            parse_config(text)

    @pytest.mark.parametrize(
        "text",
        [
            "[preprocess]\nframe_len = 256\n",
            "[preprocess]\nframe_len = 18\nframe_shift = 8\n",
            "[preprocess]\nframe_len = 300\n[spectral]\nkind = lpcc\n",
            "[model]\nvariance_floor_factor = 0\n",
            "[spectral]\nkind = lpcc\nlpcc_lp_order = 1\n",
            "[spectral]\nlpcc_lp_order = 0\n",
        ],
        ids=["fft-size", "above-order", "lpcc-ignores-fft", "zero-floor", "lpcc-order-1",
             "mfcc-ignores-lpcc-order"],
    )
    def test_values_at_the_limits_accepted(self, text):
        parse_config(text)


class TestFieldTypes:
    """A config built in Python refuses what ``parse_config`` could not read."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ResidualConfig(num_moments=True), "[residual] num_moments = True is not an int"),
            (lambda: PreprocessConfig(frame_len=160.0), "[preprocess] frame_len = 160.0 is not an int"),
            (lambda: PreprocessConfig(frame_len=160.5), "[preprocess] frame_len = 160.5 is not an int"),
            (lambda: PreprocessConfig(frame_len="160"), "[preprocess] frame_len = '160' is not an int"),
            (lambda: ResidualConfig(lp_order=17.0), "[residual] lp_order = 17.0 is not an int"),
            (lambda: SpectralConfig(fft_size=256.0), "[spectral] fft_size = 256.0 is not an int"),
            (lambda: ModelConfig(em_iterations=10.0), "[model] em_iterations = 10.0 is not an int"),
            (lambda: ModelConfig(m_spectral=8.0), "[model] m_spectral = 8.0 is not an int"),
            (lambda: FusionConfig(eta="0.5"), "[fusion] eta = '0.5' is not a finite float"),
            (lambda: FusionConfig(eta=True), "[fusion] eta = True is not a finite float"),
            (lambda: SpectralConfig(kind=None), "[spectral] kind = None is not a str"),
            (lambda: ToolkitConfig(fusion=0.5),
             "[toolkit] fusion = 0.5 is not a FusionConfig"),
        ],
        ids=["bool-moments", "float-frame-len", "fractional-frame-len", "text-frame-len",
             "float-lp-order", "float-fft-size", "float-em-iterations", "float-m-spectral",
             "text-eta", "bool-eta", "no-kind", "section-not-a-config"],
    )
    def test_wrong_type_names_its_key(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_values_are_stored_as_their_annotation(self):
        """An int for a float field and numpy scalars are stored as the
        field's own type, so they render as parse_config reads them."""
        cfg = ToolkitConfig(
            residual=ResidualConfig(num_moments=np.int64(4)),
            fusion=FusionConfig(eta=1),
            model=ModelConfig(variance_floor_factor=np.float32(0.5)),
        )
        assert type(cfg.residual.num_moments) is int and type(cfg.fusion.eta) is float
        assert type(cfg.model.variance_floor_factor) is float
        assert parse_config(render_config(cfg)) == cfg

    # One valid non-default value per field, each accepted beside the defaults.
    NON_DEFAULTS = {
        ("preprocess", "pre_emphasis"): 0.95,
        ("preprocess", "frame_len"): 200,
        ("preprocess", "frame_shift"): 100,
        ("preprocess", "silence_energy_ratio"): 0.1,
        ("residual", "lp_order"): 12,
        ("residual", "num_moments"): 4,
        ("spectral", "kind"): "lfcc",
        ("spectral", "num_filters"): 24,
        ("spectral", "num_cepstra"): 12,
        ("spectral", "fft_size"): 512,
        ("spectral", "lpcc_lp_order"): 14,
        ("model", "m_spectral"): 16,
        ("model", "m_residual"): 4,
        ("model", "em_iterations"): 5,
        ("model", "variance_floor_factor"): 1e-3,
        ("model", "lbg_split_epsilon"): 0.05,
        ("fusion", "eta"): 0.1 + 0.2,
    }

    def test_non_defaults_cover_every_field(self):
        every = {(section, f.name) for section, cls in _SECTIONS.items() for f in fields(cls)}
        assert set(self.NON_DEFAULTS) == every

    @pytest.mark.parametrize("section, key", sorted(NON_DEFAULTS))
    def test_every_field_survives_render_then_parse(self, section, key):
        value = self.NON_DEFAULTS[section, key]
        default = ToolkitConfig()
        cfg = dataclasses.replace(
            default, **{section: dataclasses.replace(getattr(default, section), **{key: value})}
        )
        back = parse_config(render_config(cfg))
        assert back == cfg
        stored = getattr(getattr(back, section), key)
        assert stored == value and type(stored) is type(value)
