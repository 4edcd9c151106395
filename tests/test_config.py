import pytest

from smlpde.cli import main as cli_main
from smlpde.config import (default_config, format_config, parse_config,
                           parse_config_text)
from smlpde.errors import ConfigError

# settings that became constants of the program (the grid's space
# dimension d is 1), or that another setting decides (n_experiments is the
# length of u0_profiles): a config naming one is refused like any other
# unknown key
REMOVED_KEYS = {"rate", "gradcheck_samples", "gradcheck_step", "tau0_factor",
                "box_points_per_axis", "box_sample_budget", "fit_points",
                "eval_points", "probe_depth", "n_experiments", "d"}


class TestRoundTrip:
    def test_print_parse_print_byte_identical(self):
        text = format_config(default_config())
        cfg = parse_config_text(text)
        assert format_config(cfg) == text

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        text = format_config(default_config())
        path.write_text(text, encoding="utf-8")
        cfg = parse_config(path)
        assert format_config(cfg) == text

    def test_overrides_survive(self):
        text = format_config(default_config()).replace(
            "nx = 65", "nx = 33").replace("m_max = 5", "m_max = 2")
        cfg = parse_config_text(text)
        assert cfg["grid"]["nx"] == 33
        assert cfg["schedule"]["m_max"] == 2


class TestStrictness:
    def test_unknown_key_names_key_and_line(self):
        text = "[schedule]\nlamda0 = 1.0\n"
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert "lamda0" in str(info.value)
        assert "line 2" in str(info.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text("[scheduler]\n")
        assert "scheduler" in str(info.value)

    def test_malformed_value(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text("[grid]\nnx = sixty-five\n")
        assert "line 2" in str(info.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("[grid]\nnx = 5\nnx = 7\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("nx = 5\n")

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n[grid]\n# another\nnx = 33  # trailing\n"
        cfg = parse_config_text(text)
        assert cfg["grid"]["nx"] == 33

    def test_comment_after_section_header(self):
        cfg = parse_config_text("[grid]  # the grid\nnx = 33\n")
        assert cfg["grid"]["nx"] == 33
        with pytest.raises(ConfigError) as info:
            parse_config_text("[grid\nnx = 33\n")
        assert "malformed section header" in str(info.value)

    def test_commented_headers_round_trip(self):
        text = format_config(default_config())
        commented = "\n".join(f"{line}  # {line[1:-1]}"
                              if line.startswith("[") else line
                              for line in text.splitlines())
        assert commented != text
        assert format_config(parse_config_text(commented)) == text


class TestValidation:
    def test_schedule_sequence_documented(self):
        cfg = default_config()
        lam0 = cfg["schedule"]["lambda0"]
        a = cfg["schedule"]["growth"]
        seq = [lam0 * a**m for m in (1, 2, 3)]
        assert seq == [4.0, 16.0, 64.0]

    def test_method_is_unknown_key(self):
        # the optimizer method is not configurable: `method` is an unknown key
        text = "[optimizer]\nmethod = sgd\n"
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            parse_config_text("[ground_truth]\nkind = advection\n")

    def test_nonpositive_schedule(self):
        with pytest.raises(ConfigError):
            parse_config_text("[schedule]\ngrowth = 0.0\n")

    def test_unknown_family_names_value(self):
        # MeasurementOp owns the family rule; the config names its section
        with pytest.raises(ConfigError) as info:
            parse_config_text("[measurement]\nfamily = blur\n")
        assert "[measurement]" in str(info.value)
        assert "'blur'" in str(info.value)

    def test_infinite_param_norm_p_accepted(self):
        # the only float key where inf is valid: the max-norm of the parameters
        cfg = parse_config_text("[weights]\nparam_norm_p = inf\n")
        assert cfg["weights"]["param_norm_p"] == float("inf")

    def test_small_margin_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[weights]\nbox_margin = 1.0\n")

    @pytest.mark.parametrize("text", [
        "[grid]\nd = 2\n",
        "[weights]\nq = 1.5\n",
        "[ground_truth]\nn_experiments = 4\n",
        "[ground_truth]\nkappa = 3\n",
        "[network]\nactivation = gelu\n",
        "[probe]\nwidths = 0\n",
        "[grid]\nnx = 4\n",
        "[grid]\nnt = 2\n",
        "[grid]\nt_end = 0.0\n",
        "[grid]\nx_hi = 0.0\n",
        "[weights]\nbox_points_per_axis = 1\n",
        "[weights]\nbox_sample_budget = 0\n",
        "[network]\nwidth0 = 0\n",
        "[network]\ndepth = 1\n",
        "[measurement]\nnoise0 = -0.1\n",
        "[weights]\nparam_norm_p = 0.5\n",
        "[optimizer]\ngradcheck_step = 0.01\n",
        "[optimizer]\ngradcheck_step = 1e-09\n",
        "[optimizer]\ngradcheck_samples = 0\n",
        "[ground_truth]\nf_true = quartic\n",
        "[probe]\nf_name = quartic\n",
        "[ground_truth]\nu0_profiles = wave:1.0, sine:0.8, bump:1.0\n",
        "[ground_truth]\nphi1_profiles = constant:abc, constant:-0.6, constant:0.25\n",
        "[ground_truth]\nu0_profiles = constant:nan, sine:0.8, bump:1.0\n",
        "[optimizer]\nrate = 0.0\n",
        "[optimizer]\nmax_iters = -1\n",
        "[optimizer]\nrestarts = 0\n",
        "[weights]\nrho = inf\n",
        "[weights]\nq = inf\n",
        "[weights]\nr = nan\n",
        "[weights]\ntau0_factor = -1\n",
        "[weights]\ntau0_factor = 0.0\n",
        "[weights]\nbox_margin = nan\n",
        "[weights]\nparam_norm_p = nan\n",
        "[schedule]\ngrowth = nan\n",
        "[measurement]\nnoise0 = inf\n",
        "[grid]\nt_end = inf\n",
        "[probe]\nprobe_depth = 1\n",
        "[probe]\nfit_points = 0\n",
        "[probe]\neval_points = 1\n",
        "[probe]\ntrain_iters = -5\n",
        "[probe]\ninterval_lo = 3.0\n",
        "[probe]\ninterval_hi = inf\n",
        "[probe]\nwidths = 8, 4\n",
        "[probe]\nwidths = 4, 4, 8\n",
        "[measurement]\ndata_seed = -1\n",
        "[network]\ninit_seed = -1\n",
        "[probe]\nprobe_seed = -1\n",
        "[ground_truth]\nphi2_profiles = constant:1\n",
        "[ground_truth]\nkind = burgers1d\n",
        "[ground_truth]\nkind = none\n",
        "[ground_truth]\nkind = diffusion_reaction\nphi2_profiles = "
        "constant:1, constant:1, constant:1, constant:1\n",
        "[ground_truth]\nkind = diffusion_reaction\nphi2_profiles = "
        "constant:1, constant:1\n",
        "[ground_truth]\nu0_profiles = sine:1.0, sine:0.8, bump:1.0, bump:0.5\n",
        "[ground_truth]\nu0_profiles =\nphi1_profiles =\n",
        "[ground_truth]\nphi1_profiles = constant:1, constant:1, constant:1, "
        "constant:1\n",
        "[measurement]\nfamily = blur\n",
        "[optimizer]\ngrad_tol = -1\n",
    ], ids=["d2", "q1.5", "n_experiments4", "kappa3", "gelu", "width0",
            "nx4", "nt2", "t_end0", "x_hi_le_x_lo", "box_points1",
            "box_budget0", "net_width0", "net_depth1", "noise_negative", "p0.5",
            "gradcheck_step_large", "gradcheck_step_small",
            "gradcheck_samples0", "f_true_unknown", "f_name_unknown",
            "profile_unknown", "profile_param_not_number", "profile_nonfinite",
            "rate0", "max_iters_negative", "restarts0", "rho_inf", "q_inf",
            "r_nan", "tau0_factor_negative", "tau0_factor0", "box_margin_nan",
            "param_norm_p_nan", "growth_nan", "noise0_inf", "t_end_inf",
            "probe_depth1", "fit_points0", "eval_points1",
            "train_iters_negative", "interval_reversed", "interval_hi_inf",
            "widths_decreasing", "widths_repeated", "data_seed_negative",
            "init_seed_negative", "probe_seed_negative",
            "phi2_profiles_convection", "phi1_profiles_burgers",
            "phi1_profiles_none", "phi2_longer_than_phi1",
            "phi2_shorter_than_phi1", "u0_profiles_too_many",
            "u0_profiles_empty", "phi1_profiles_too_many", "family_unknown",
            "grad_tol_negative"])
    def test_cross_field_errors_exit_2(self, text, tmp_path, capsys):
        # each of these used to pass parsing and fail later with a traceback,
        # except the removed keys, which used to be checked settings
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        section, line = text.splitlines()[:2]
        assert section in err
        key = line.partition(" =")[0]
        if key in REMOVED_KEYS:
            assert f"unknown key '{key}'" in err
        elif section == "[optimizer]":
            # OptimConfig names the field at fault, not a rate no config sets
            assert key in err and "rate" not in err
