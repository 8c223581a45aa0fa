"""Network tests: shape chains, determinism, causality through the heads,
the no_grad forward path, initialization contracts, ablation key sets,
config text and weight serialization, and the rate `log_masses`: its
masses against `gmm_pmf_table`, its gradients against finite differences,
and the training step it drives, pinned."""

import hashlib
import struct
import tracemalloc
import zlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlic import entropy as E
from nlic import tensor as T
from nlic.entropy import SCALE_FLOOR, FactorizedPrior
from nlic.errors import (
    ConfigError,
    ContractViolation,
    IntegrityError,
    NlicError,
    TruncationError,
)
from nlic.network import (
    AttentionBlock,
    Model,
    ModelConfig,
    _mixture_log_masses,
    _ParamStore,
    _zeros,
    canonical_config_text,
    config_hash,
    deserialize_weights,
    log_masses,
    parse_config_text,
    serialize_weights,
    weight_hash,
)

from conftest import channel_first, channel_last, finite_difference, rel_err


def assert_no_grad_matches_recording(run):
    """run() gives a Tensor or a tuple of them. With recording on, every
    output must carry a graph; under no_grad the same data with none."""
    def outputs(result):
        return list(result) if isinstance(result, tuple) else [result]

    recorded = outputs(run())
    with T.no_grad():
        plain = outputs(run())
    for r, p in zip(recorded, plain, strict=True):
        assert r.requires_grad and r._parents
        assert not p.requires_grad and p._parents == () and p._backward is None
        assert np.array_equal(r.data, p.data)


@pytest.fixture
def small_config():
    return ModelConfig(filters_n=8, mixtures_k=2)


@pytest.fixture
def model(small_config):
    return Model(small_config).init_random(0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(mixtures_k=0)
        with pytest.raises(ConfigError):
            ModelConfig(filters_n=2)

    @pytest.mark.parametrize("key, value", [
        ("filters_n", 2 ** 17 + 1), ("filters_n", 3_000_000_000), ("mixtures_k", 65)])
    def test_values_above_bounds_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value})
        text = f"{key}={value}\n"
        with pytest.raises(ConfigError, match=key):
            Model(parse_config_text(text))
        blob = b"NLW2" + struct.pack("<I", len(text)) + text.encode()
        with pytest.raises(ConfigError, match=key):
            deserialize_weights(blob)

    def test_largest_values_accepted(self):
        n = 2 ** 17
        cfg = ModelConfig(filters_n=n, mixtures_k=64)
        assert Model(cfg).params["head_y.conv2.w"].shape == (3 * 64 * n, 3 * n, 1, 1)

    @pytest.mark.parametrize("key, value", [
        ("use_attention", 1), ("use_context_x", "no"), ("use_context_x", np.True_),
        ("filters_n", 8.0), ("filters_n", True), ("mixtures_k", np.int64(2))])
    def test_field_types_exact(self, key, value):
        # use_attention=1 and use_context_x=np.True_ compare equal to the
        # default but are no bool; filters_n=8.0 and use_context_x="no"
        # (truthy) write text their own parser rejects
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value})

    def test_fields(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "filters_n", "mixtures_k", "use_attention", "use_context_x"]
        assert ModelConfig.mask_kernel_y == ModelConfig().mask_kernel_y == 5
        assert ModelConfig.mask_kernel_x == ModelConfig().mask_kernel_x == 7
        assert ModelConfig.downsample_factor == ModelConfig().downsample_factor == 4
        assert ModelConfig.total_downsample == ModelConfig().total_downsample == 16

    def test_default_text_pinned(self):
        assert canonical_config_text(ModelConfig()) == (
            "filters_n=32\nmixtures_k=3\nuse_attention=true\nuse_context_x=true\n")
        assert config_hash(ModelConfig()).hex() == (
            "4e34b7e2e81f83ba754e819cd83399e6ecc7e008c0bde77dd608e23daf097c03")

    def test_text_with_downsample_keys_rejected(self):
        # the default text of the configs that still had the two downsample
        # fields: a weights file written then does not load as today's model
        text = ("downsample_factor=4\nfilters_n=32\nhyper_downsample=4\nmixtures_k=3\n"
                "use_attention=true\nuse_context_x=true\n")
        with pytest.raises(ConfigError, match="unknown model config key 'downsample_factor'"):
            parse_config_text(text)

    @given(st.builds(ModelConfig, filters_n=st.integers(4, 1 << 17),
                     mixtures_k=st.integers(1, 64), use_attention=st.booleans(),
                     use_context_x=st.booleans()))
    @example(ModelConfig(filters_n=16, use_attention=False))
    @settings(max_examples=200, deadline=None, database=None)
    def test_canonical_text_round_trip(self, cfg):
        assert parse_config_text(canonical_config_text(cfg)) == cfg

    @pytest.mark.parametrize("edit", [
        lambda t: "# nlic model\n" + t,
        lambda t: t.replace("filters_n=32\n", "filters_n=32\n\n"),
        lambda t: "".join(t.splitlines(True)[i] for i in (1, 0, 2, 3)),
        lambda t: t.replace("filters_n=32", "filters_n=032"),
        lambda t: t.replace("mixtures_k=3\n", ""),
        lambda t: t.replace("filters_n=32\n", "filters_n=32 \n"),
        lambda t: t.replace("\n", "\r\n"),
    ], ids=["comment", "blank-line", "keys-swapped", "leading-zero",
            "missing-key", "trailing-space", "crlf"])
    def test_non_canonical_text_rejected(self, edit):
        # each names the default config's values in a spelling other than
        # its canonical text; test_bool_literals covers the bool spellings
        text = edit(canonical_config_text(ModelConfig()))
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_hash_distinguishes_configs(self):
        a = config_hash(ModelConfig(filters_n=16))
        b = config_hash(ModelConfig(filters_n=32))
        assert a != b and len(a) == 32

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_text(canonical_config_text(ModelConfig()) + "bogus=1\n")

    @pytest.mark.parametrize("line", ["filters_n=16\n", "filters_n=32\n"],
                             ids=["different", "same"])
    def test_duplicated_key_rejected(self, line):
        with pytest.raises(ConfigError, match="canonical"):
            parse_config_text(canonical_config_text(ModelConfig()) + line)

    @pytest.mark.parametrize("raw", ["abc", "", "8.0", "0x10"])
    def test_non_integer_rejected(self, raw):
        with pytest.raises(ConfigError, match="filters_n"):
            parse_config_text(f"filters_n={raw}\n")

    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("TRUE", True), ("1", True), ("Yes", True),
        ("false", False), ("False", False), ("0", False), ("NO", False)])
    def test_bool_literals(self, raw, value):
        # `value` is the bool each spelling names; only the canonical
        # spelling loads, so one config has one text
        text = canonical_config_text(ModelConfig(use_attention=value)).replace(
            f"use_attention={'true' if value else 'false'}", f"use_attention={raw}")
        if raw in ("true", "false"):
            assert parse_config_text(text).use_attention is value
        else:
            with pytest.raises(ConfigError, match="use_attention"):
                parse_config_text(text)

    @pytest.mark.parametrize("raw", ["maybe", "", "2", "on", "t"])
    def test_bool_outside_literals_rejected(self, raw):
        with pytest.raises(ConfigError, match="use_attention"):
            parse_config_text(f"use_attention={raw}\n")


class TestShapes:
    def test_default_shape_chain(self):
        m = Model(ModelConfig(filters_n=32)).init_random(1)
        x = T.Tensor(np.zeros((1, 16, 16, 3)))
        y = m.analysis(x)
        assert y.shape == (1, 4, 4, 32)
        z = m.hyper_analysis(y)
        assert z.shape == (1, 1, 1, 32)
        hf = m.hyper_synthesis(z)
        assert hf.shape == (1, 4, 4, 64)
        pf = m.synthesis(y)
        assert pf.shape == (1, 16, 16, 32)

    def test_indivisible_dims_rejected(self, model):
        with pytest.raises(ContractViolation, match="divisible"):
            model.analysis(T.Tensor(np.zeros((1, 15, 16, 3))))

    def test_empty_input_rejected(self, model):
        # a 0x16 image passes analysis's divisibility check; the first conv
        # of each transform names the empty size
        for run, shape, size in ((model.analysis, (1, 0, 16, 3), "0x16"),
                                 (model.synthesis, (1, 0, 2, 8), "0x2"),
                                 (model.hyper_synthesis, (1, 0, 1, 8), "0x1")):
            with pytest.raises(ContractViolation, match=f"empty input {size}"):
                run(T.Tensor(np.zeros(shape)))

    def test_determinism(self, model, rng):
        x = T.Tensor(channel_last(rng.normal(size=(1, 3, 16, 16))))
        a = model.analysis(x).data
        b = model.analysis(T.Tensor(x.data.copy())).data
        np.testing.assert_array_equal(a, b)

    def test_zero_weights_zero_input(self, small_config):
        m = Model(small_config)  # all-zero parameters
        x = T.Tensor(np.zeros((1, 16, 16, 3)))
        assert np.all(m.analysis(x).data == 0.0)

    def test_no_grad_matches_recording(self, model, rng):
        x = T.Tensor(channel_last(rng.normal(size=(1, 3, 16, 16))))
        y = T.Tensor(channel_last(rng.normal(size=(1, 8, 4, 4))))
        z = T.Tensor(channel_last(rng.normal(size=(1, 8, 1, 1))))
        assert_no_grad_matches_recording(lambda: model.analysis(x))
        assert_no_grad_matches_recording(lambda: model.synthesis(y))
        assert_no_grad_matches_recording(lambda: model.hyper_analysis(y))
        assert_no_grad_matches_recording(lambda: model.hyper_synthesis(z))


class TestEntropyParams:
    def test_weights_sum_to_one(self, model, rng):
        hf = T.Tensor(channel_last(rng.normal(size=(1, 16, 4, 4))))
        y_ctx = T.Tensor(channel_last(rng.normal(size=(1, 8, 4, 4))))
        weights, _, scales = model.entropy_params_y(hf, y_ctx)
        assert weights.shape == (1, 4, 4, 8, 2)
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-9)
        assert (scales.data >= SCALE_FLOOR).all()

    def test_pixel_params_shapes(self, model, rng):
        pf = T.Tensor(channel_last(rng.normal(size=(1, 8, 16, 16))))
        x_ctx = T.Tensor(channel_last(rng.normal(size=(1, 3, 16, 16))))
        weights, _, _ = model.entropy_params_x(pf, x_ctx)
        assert weights.shape == (1, 16, 16, 3, 2)
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_spatial_mismatch_rejected(self, model, rng):
        hf = T.Tensor(channel_last(rng.normal(size=(1, 16, 4, 4))))
        y_ctx = T.Tensor(channel_last(rng.normal(size=(1, 8, 5, 5))))
        with pytest.raises(ContractViolation, match="mismatch"):
            model.entropy_params_y(hf, y_ctx)

    def test_context_disabled_ignores_input(self, rng):
        m = Model(ModelConfig(filters_n=8, mixtures_k=2, use_context_x=False)).init_random(3)
        pf = T.Tensor(channel_last(rng.normal(size=(1, 8, 4, 4))))
        a = m.entropy_params_x(pf, T.Tensor(channel_last(rng.normal(size=(1, 3, 4, 4)))))
        b = m.entropy_params_x(pf, T.Tensor(channel_last(rng.normal(size=(1, 3, 4, 4)))))
        for a_field, b_field in zip(a, b, strict=True):
            np.testing.assert_array_equal(a_field.data, b_field.data)

    @pytest.mark.parametrize("path", ["y", "x"])
    def test_exhaustive_raster_causality(self, model, rng, path):
        # perturb each position of a 6x6 input; everything raster-earlier in
        # the emitted params must stay bit-identical
        if path == "y":
            feat = T.Tensor(channel_last(rng.normal(size=(1, 16, 6, 6))))
            ctx0 = channel_last(rng.normal(size=(1, 8, 6, 6)))
            run = lambda ctx: model.entropy_params_y(feat, T.Tensor(ctx))
            channels = ctx0.shape[3]
        else:
            feat = T.Tensor(channel_last(rng.normal(size=(1, 8, 6, 6))))
            ctx0 = channel_last(rng.normal(size=(1, 3, 6, 6)))
            run = lambda ctx: model.entropy_params_x(feat, T.Tensor(ctx))
            channels = 3
        with T.no_grad():
            base = run(ctx0)
            for p in range(36):
                i, j = divmod(p, 6)
                ctx = ctx0.copy()
                ctx[0, i, j, rng.integers(channels)] += 1.0 + rng.random()
                out = run(ctx)
                for base_field, out_field in zip(base, out, strict=True):
                    a = base_field.data.reshape(1, 36, -1)
                    b = out_field.data.reshape(1, 36, -1)
                    assert np.array_equal(a[:, :p], b[:, :p]), f"leak at {p}"

    @pytest.mark.parametrize("path", ["y", "x"])
    def test_wavefront_handoff(self, model, rng, path):
        # the locations of one wavefront step, t = j + (k//2 + 1)*i for the
        # mask-A kernel k, gathered as p.data[0, ii, jj] are the [L, C, K]
        # batch that determinize and gmm_pmf_table take, with no moveaxis;
        # each row equals the calls at its location alone
        for param in model.params.values():  # spread the heads' outputs
            param.data = param.data + rng.normal(scale=0.3, size=param.data.shape)
        with T.no_grad():
            if path == "y":
                params = model.entropy_params_y(
                    T.Tensor(channel_last(rng.normal(size=(1, 16, 6, 8)))),
                    T.Tensor(channel_last(rng.normal(size=(1, 8, 6, 8)))))
                kernel, grid = model.config.mask_kernel_y, E.LATENT_GRID
            else:
                params = model.entropy_params_x(
                    T.Tensor(channel_last(rng.normal(size=(1, 8, 6, 8)))),
                    T.Tensor(channel_last(rng.normal(size=(1, 3, 6, 8)))))
                kernel, grid = model.config.mask_kernel_x, E.PIXEL_GRID
        fields = [t.data for t in params]
        assert all(f.flags.c_contiguous for f in fields)
        i, j = np.indices((6, 8))
        steps = j + (kernel // 2 + 1) * i
        for step in range(steps.max() + 1):
            ii, jj = np.nonzero(steps == step)
            batch = E.determinize(*(f[0, ii, jj] for f in fields), grid)
            tables = E.gmm_pmf_table(*batch, grid)
            assert tables.shape == (ii.size, fields[0].shape[3], grid.n_symbols)
            for row, loc in enumerate(zip(ii, jj)):
                alone = E.determinize(*(f[0][loc] for f in fields), grid)
                for got, want in zip(batch, alone, strict=True):
                    np.testing.assert_array_equal(got[row], want)
                np.testing.assert_array_equal(tables[row], E.gmm_pmf_table(*alone, grid))

    HEAD_DIGESTS = {  # sha256 of (weights, means, scales) of the y head, then the x head
        True: ("9e2d04a62e969026d5b17479b782ca53fe80b39282b006dac892be79d598b666",
               "ae3fd2093eec470c1b5b8e7e4c7c656758828705246ccb5bc235b0aff8f61144"),
        False: ("9e2d04a62e969026d5b17479b782ca53fe80b39282b006dac892be79d598b666",
                "997a4f300057ddaef82ca53f7a5b1943ff0572d65c380d46a6df1860e1dd70b4"),
    }

    @pytest.mark.parametrize("use_context_x", [True, False])
    def test_heads_pinned(self, use_context_x):
        # the context convs, the two 1x1 head convs and the split into
        # mixture parameters, which the coded bytes depend on
        m = Model(ModelConfig(filters_n=8, mixtures_k=2,
                              use_context_x=use_context_x)).init_random(9)
        # lift the near-zero head finals, each parameter from its own
        # stream, seeded by name as init_random seeds it, so the digests do
        # not depend on the other layers' sizes
        for name, t in m.params.items():
            lift = np.random.default_rng([19, zlib.crc32(name.encode())])
            t.data = t.data + lift.normal(scale=0.3, size=t.data.shape)
        rng = np.random.default_rng(19)
        with T.no_grad():
            heads = (m.entropy_params_y(T.Tensor(channel_last(rng.normal(size=(1, 16, 4, 6)))),
                                        T.Tensor(channel_last(rng.normal(size=(1, 8, 4, 6))))),
                     m.entropy_params_x(T.Tensor(channel_last(rng.normal(size=(1, 8, 8, 6)))),
                                        T.Tensor(channel_last(rng.normal(size=(1, 3, 8, 6))))))
        digests = tuple(hashlib.sha256(b"".join(t.data.tobytes() for t in p))
                        .hexdigest() for p in heads)
        assert digests == self.HEAD_DIGESTS[use_context_x]

    def test_no_grad_matches_recording(self, model, rng):
        hf = T.Tensor(channel_last(rng.normal(size=(1, 16, 4, 4))))
        y_ctx = T.Tensor(channel_last(rng.normal(size=(1, 8, 4, 4))))
        pf = T.Tensor(channel_last(rng.normal(size=(1, 8, 16, 16))))
        x_ctx = T.Tensor(channel_last(rng.normal(size=(1, 3, 16, 16))))
        z = T.Tensor(rng.normal(scale=20.0, size=(1, 2, 2, 8)))
        for name in ("b", "a"):  # init leaves these zero
            for i in range(3):
                model.params[f"prior.{name}{i}"].data = rng.normal(size=8)
        assert_no_grad_matches_recording(lambda: model.entropy_params_y(hf, y_ctx))
        assert_no_grad_matches_recording(lambda: model.entropy_params_x(pf, x_ctx))
        assert_no_grad_matches_recording(lambda: model.prior.cdf(z))


class TestAttention:
    def test_output_shape_and_gradient(self, rng, kink_guard):
        store = _ParamStore()
        attn = AttentionBlock(store, "attn", 4)
        for t in store.params.values():
            t.data = rng.normal(scale=0.2, size=t.data.shape)
        x = channel_last(rng.normal(size=(1, 4, 6, 6)))
        out = attn(T.Tensor(x))
        assert out.shape == x.shape

        tensors = [T.Tensor(x, requires_grad=True)]
        h = attn(tensors[0])
        loss = T.reduce_sum(T.mul(h, h))
        loss.backward()

        def scalar_fn(arr):
            h = attn(T.Tensor(arr))
            return T.reduce_sum(T.mul(h, h)).item()

        fd = finite_difference(scalar_fn, [x.copy()], kink_guard)
        assert rel_err(tensors[0].grad, fd[0]) < 1e-4

    def test_zeroed_finals_identity(self, rng):
        store = _ParamStore()
        attn = AttentionBlock(store, "attn", 4)
        for name, t in store.params.items():
            t.data = rng.normal(scale=0.2, size=t.data.shape)
        x = channel_last(rng.normal(size=(1, 4, 6, 6)))
        # zero mask final only: out = t + 0.5 * trunk(t)
        attn.mask_out.w.data = np.zeros_like(attn.mask_out.w.data)
        attn.mask_out.b.data = np.zeros_like(attn.mask_out.b.data)
        with T.no_grad():
            trunk = T.Tensor(x)
            for blk in attn.trunk:
                trunk = blk(trunk)
            trunk = attn.trunk_out(trunk).data
            np.testing.assert_allclose(attn(T.Tensor(x)).data, x + 0.5 * trunk, atol=1e-12)
            # zero trunk final too: exact identity
            attn.trunk_out.w.data = np.zeros_like(attn.trunk_out.w.data)
            attn.trunk_out.b.data = np.zeros_like(attn.trunk_out.b.data)
            np.testing.assert_array_equal(attn(T.Tensor(x)).data, x)


    PLACEMENT_DIGESTS = {  # sha256 of synthesis(analysis(x)), then of the hyper path, [B,C,H,W]
        True: ("96762fca5931f7c616a36e446798acd9b065f2027c47385132b1f89498f5bb58",
               "04154c8a537b68d7bcae5b727502c769a6933c47b3cd0ba849773c1c529f7da3"),
        False: ("3ef5118d6ded345b8cb336b30a3e6a4de6fed1b42eb2c5ef2680e17b7da2953e",
                "01b631bbe7f04c675288150e3fd87dea8923f6353e7bd70b7fde230f1fd800e6"),
    }

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_placement_pinned(self, use_attention):
        # the order of the stages and where attention sits between them, in
        # both transforms and both hyper transforms
        cfg = ModelConfig(filters_n=4, mixtures_k=1, use_attention=use_attention)
        m = Model(cfg).init_random(6)
        rng = np.random.default_rng(16)
        for t in m.params.values():  # lift the near-zero attention finals
            t.data = t.data + rng.normal(scale=0.3, size=t.data.shape)
        x = T.Tensor(channel_last(rng.normal(size=(1, 3, 16, 16))))
        with T.no_grad():
            y = m.analysis(x)
            outs = (m.synthesis(y).data, m.hyper_synthesis(m.hyper_analysis(y)).data)
        assert tuple(hashlib.sha256(channel_first(out).tobytes()).hexdigest()
                     for out in outs) == self.PLACEMENT_DIGESTS[use_attention]


class TestInit:
    def test_deterministic(self, small_config):
        a = Model(small_config).init_random(7).state()
        b = Model(small_config).init_random(7).state()
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_seed_changes_weights(self, small_config):
        a = Model(small_config).init_random(7).state()
        b = Model(small_config).init_random(8).state()
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_initial_params_on_zero_image(self, model):
        x = T.Tensor(np.zeros((1, 16, 16, 3)))
        y = model.analysis(x)
        hf = model.hyper_synthesis(model.hyper_analysis(y))
        weights, _, scales = model.entropy_params_y(hf, y)
        np.testing.assert_allclose(weights.data, 0.5, atol=0.02)
        np.testing.assert_allclose(scales.data, 1.0, atol=0.05)
        pf = model.synthesis(y)
        weights, _, scales = model.entropy_params_x(pf, x)
        np.testing.assert_allclose(weights.data, 0.5, atol=0.02)
        np.testing.assert_allclose(scales.data, 1.0, atol=0.05)

    def test_ablation_key_sets_shrink(self):
        base = set(Model(ModelConfig(filters_n=8)).init_random(0).params)
        no_attn = set(Model(ModelConfig(filters_n=8, use_attention=False)).init_random(0).params)
        no_ctx = set(Model(ModelConfig(filters_n=8, use_context_x=False)).init_random(0).params)
        assert no_attn < base
        assert no_ctx < base
        assert all(k.startswith(("ga.attn", "gs.attn")) for k in base - no_attn)
        assert all(k.startswith("ctx_x") for k in base - no_ctx)

    def test_context_kernels_read_from_config(self, monkeypatch):
        # both context kernels come from the class constants, swapped here
        monkeypatch.setattr(ModelConfig, "mask_kernel_y", 7)
        monkeypatch.setattr(ModelConfig, "mask_kernel_x", 5)
        model = Model(ModelConfig(filters_n=8))
        assert model.ctx_y.w.shape == (8, 8, 7, 7) and model.ctx_x.w.shape == (8, 3, 5, 5)
        np.testing.assert_array_equal(model.ctx_y.mask, T.causal_mask(7))
        np.testing.assert_array_equal(model.ctx_x.mask, T.causal_mask(5))

    def test_prior_matches_factorized_prior_init(self, small_config):
        model = Model(small_config).init_random(3)
        want = FactorizedPrior.init(small_config.filters_n).pmf_table(E.LATENT_GRID)
        assert np.array_equal(model.prior.pmf_table(E.LATENT_GRID), want)

    @pytest.mark.parametrize("ablation, shared, keys", [
        ({"use_context_x": False}, 115, 115),
        # head_{y,x}.conv2.{w,b} have 3K or 9K output channels
        ({"mixtures_k": 1}, 113, 117),
        ({"use_attention": False}, 61, 61),
    ], ids=["use_context_x", "mixtures_k", "use_attention"])
    def test_shared_keys_get_identical_values(self, ablation, shared, keys):
        full = Model(ModelConfig(filters_n=8)).init_random(5).params
        ablated = Model(ModelConfig(filters_n=8, **ablation)).init_random(5).params
        same_shape = [k for k, t in ablated.items() if t.data.shape == full[k].data.shape]
        assert (len(same_shape), len(ablated)) == (shared, keys)
        for k in same_shape:
            np.testing.assert_array_equal(full[k].data, ablated[k].data)

    def test_duplicate_parameter_rejected(self):
        store = _ParamStore()
        store.add("head.w", (2, 3), _zeros)
        with pytest.raises(ContractViolation, match="duplicate parameter head.w"):
            store.add("head.w", (2, 3), _zeros)


class TestSerialization:
    def test_round_trip_bit_exact(self, model):
        blob = serialize_weights(model)
        assert blob[:4] == b"NLW2"
        restored = deserialize_weights(blob)
        assert restored.config == model.config
        for k, t in model.params.items():
            np.testing.assert_array_equal(restored.params[k].data, t.data)
        assert serialize_weights(restored) == blob

    def test_bytes_pinned(self, model):
        # filters_n=8, mixtures_k=2, init seed 0: every init kind, the
        # parameter order and the NLW2 layout
        blob = serialize_weights(model)
        assert len(blob) == 307_739
        assert hashlib.sha256(blob).hexdigest() == (
            "c98f243ea3531e9bdba42ab3145ece36df6c457abc126ca25d41d4bc7233e137")
        # the float64 data section alone: the values in store order
        (cfg_len,) = struct.unpack_from("<I", blob, 4)
        assert hashlib.sha256(blob[8 + cfg_len:-4]).hexdigest() == (
            "24acc1d7eeb38867192d2920b9f149ad6866d582a1d848f57febf5ed453a9bb1")

    def test_weight_hash_stable(self, model):
        assert weight_hash(model) == weight_hash(model)
        other = Model(model.config).init_random(99)
        assert weight_hash(model) != weight_hash(other)


class TestWeightsParsing:
    """Malformed NLW2 blobs raise TruncationError or IntegrityError
    (ConfigError for the config text), never struct.error, ValueError or
    UnicodeDecodeError."""

    @pytest.fixture(scope="class")
    def blob(self):
        return serialize_weights(Model(ModelConfig(filters_n=4, mixtures_k=1)).init_random(0))

    @staticmethod
    def data_start(blob):
        return 8 + struct.unpack_from("<I", blob, 4)[0]

    def test_every_prefix_before_data_rejected(self, blob):
        for cut in range(self.data_start(blob) + 1):
            with pytest.raises(TruncationError):
                deserialize_weights(blob[:cut])

    def test_prefixes_inside_data_rejected(self, blob):
        cuts = [*range(self.data_start(blob) + 1, len(blob), 997),
                *range(len(blob) - 12, len(blob))]
        for cut in cuts:
            with pytest.raises(TruncationError, match="declares"):
                deserialize_weights(blob[:cut])

    @pytest.mark.parametrize("tail", [b"\x00", b"junk"])
    def test_trailing_bytes_rejected(self, blob, tail):
        with pytest.raises(IntegrityError, match="declares") as info:
            deserialize_weights(blob + tail)
        assert not isinstance(info.value, TruncationError)

    def test_flipped_data_or_crc_byte_rejected(self, blob):
        for pos in [*range(self.data_start(blob), len(blob), 331),
                    *range(len(blob) - 4, len(blob))]:
            for bit in (0x01, 0x80):
                bad = bytearray(blob)
                bad[pos] ^= bit
                with pytest.raises(IntegrityError, match="CRC"):
                    deserialize_weights(bytes(bad))

    def test_flipped_header_byte_rejected(self, blob):
        # a flip in the magic, the length or the config text either breaks
        # the config, changes the declared size, or fails the CRC
        for pos in range(self.data_start(blob)):
            bad = bytearray(blob)
            bad[pos] ^= 0x01
            with pytest.raises(NlicError):
                deserialize_weights(bytes(bad))

    def test_other_config_spliced_rejected(self, blob):
        text = canonical_config_text(ModelConfig(filters_n=8, mixtures_k=1)).encode()
        bad = b"NLW2" + struct.pack("<I", len(text)) + text + blob[self.data_start(blob):]
        with pytest.raises(TruncationError, match="declares"):
            deserialize_weights(bad)

    def test_non_utf8_config_text_rejected(self, blob):
        bad = blob[:8] + b"\xff" + blob[9:]
        with pytest.raises(ConfigError, match="UTF-8"):
            deserialize_weights(bad)

    @pytest.mark.parametrize("filters_n", [128, 100000])
    def test_config_alone_allocates_nothing(self, filters_n):
        # config text and no data: the model the text names is never
        # filled, so building it must not allocate its weights
        text = canonical_config_text(ModelConfig(filters_n=filters_n)).encode()
        blob = b"NLW2" + struct.pack("<I", len(text)) + text
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError, match="declares"):
                deserialize_weights(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestGradientFlow:
    def test_prior_parameter_gradient(self, model, rng, kink_guard):
        # the rate of integer symbols under the prior, as a training loss
        # takes it; every prior.* parameter must receive its gradient
        names = [f"prior.{kind}{i}" for i in range(3) for kind in "hba"]
        for name in names:
            model.params[name].data = rng.normal(size=8)
        z = rng.normal(scale=3.0, size=(1, 2, 2, 8))

        def rate():
            upper, lower = model.prior.cdf(z + 0.5), model.prior.cdf(z - 0.5)
            return T.reduce_sum(T.log(T.sub(upper, lower)))

        rate().backward()
        arrays = [model.params[name].data for name in names]
        fd = finite_difference(lambda *_: rate().item(), arrays, kink_guard)
        for name, want in zip(names, fd, strict=True):
            assert rel_err(model.params[name].grad, want) < 1e-5, name

    def test_hyper_path_gradient(self, small_config, rng, kink_guard):
        m = Model(small_config).init_random(2)
        y_data = channel_last(rng.normal(size=(1, 8, 4, 4))) * 0.1

        def fn(y):
            hf = m.hyper_synthesis(m.hyper_analysis(y))
            return T.reduce_sum(T.mul(hf, hf))

        yt = T.Tensor(y_data, requires_grad=True)
        fn(yt).backward()

        # one ha.in leaky_relu preactivation lies 1.06e-7 from its kink at this
        # input, so h=1e-5 or 1e-6 probes straddle it; at h=1e-7 none does
        fd = finite_difference(lambda a: fn(T.Tensor(a)).item(), [y_data.copy()],
                               kink_guard, h=1e-7)
        assert rel_err(yt.grad, fd[0]) < 1e-4

    def test_two_backward_passes_on_one_model(self, rng):
        # the parameters are leaves shared by both graphs; the first backward
        # must leave them usable, and the second must give the same grads
        cfg = ModelConfig(filters_n=4, mixtures_k=1, use_attention=False)
        m = Model(cfg).init_random(4)
        x = T.Tensor(channel_last(rng.normal(size=(1, 3, 16, 16))))
        grads = []
        for _ in range(2):
            for t in m.params.values():
                t.grad = None
            h = m.synthesis(m.analysis(x))
            T.reduce_sum(T.mul(h, h)).backward()
            grads.append({k: t.grad for k, t in m.params.items() if t.grad is not None})
        assert grads[0] and grads[0].keys() == grads[1].keys()
        for k in grads[0]:
            np.testing.assert_array_equal(grads[0][k], grads[1][k])

    def test_analysis_synthesis_end_to_end_gradient(self, rng, kink_guard):
        cfg = ModelConfig(filters_n=4, mixtures_k=1, use_attention=False)
        m = Model(cfg).init_random(4)
        x_data = rng.normal(size=(1, 3, 16, 16)) * 0.5  # moved channel-last in fn

        def fn(x):
            h = m.synthesis(m.analysis(x))
            return T.reduce_sum(T.mul(h, h))

        xt = T.Tensor(channel_last(x_data), requires_grad=True)
        fn(xt).backward()

        # finite differences on every 24th input entry, 32 of the 768 and all
        # three channels: each entry costs two forward passes
        picked = np.arange(0, x_data.size, 24)

        def fn_picked(values):
            x = x_data.copy()
            x.reshape(-1)[picked] = values
            return fn(T.Tensor(channel_last(x))).item()

        fd = finite_difference(fn_picked, [x_data.reshape(-1)[picked]], kink_guard)
        assert rel_err(channel_first(xt.grad).reshape(-1)[picked], fd[0]) < 1e-4

    # sha256 of the loss, then of every gradient in store order
    STEP_DIGESTS = {
        True: ("eadd1a96a11b67f968bc66ec70135e054ebfbcc7fd26a079ffd6e45fa5ad246e",
               "cb8b76c3e02c4b80dd116c29a32bd45d9a0b02758c329a7cb7f9b95ab828cf32"),
        False: ("f6f1def33efb2e2519c418abbba38b31dc4226bc15ad6963b22ed2fa81470a81",
                "6d47f131b8e52e9bea9bb79b8595daf57cadcbe25b28570d2938abafd1247f9d"),
    }

    @pytest.mark.parametrize("full", [True, False], ids=["default", "no-attention-no-context"])
    def test_step_gradients_pinned(self, full):
        # one training step on log_masses: the rates of x and y under their
        # heads and of z under the prior, each value over its own grid's bin,
        # through every transform; all parameters get a gradient, bit for
        # bit the same
        m = Model(ModelConfig(filters_n=4, use_attention=full, use_context_x=full)).init_random(8)
        x = T.Tensor(channel_last(np.random.default_rng(18).normal(size=(1, 3, 16, 16))))
        y = m.analysis(x)
        z = m.hyper_analysis(y)
        z_term, y_term, x_term = log_masses(m, x, y, z)
        loss = T.mul(T.add(T.add(z_term, y_term), x_term), -1.0)
        loss.backward()
        assert all(t.grad is not None for t in m.params.values())
        grads = b"".join(t.grad.tobytes() for t in m.params.values())
        assert (hashlib.sha256(loss.data.tobytes()).hexdigest(),
                hashlib.sha256(grads).hexdigest()) == self.STEP_DIGESTS[full]


class TestLogMasses:
    @pytest.mark.parametrize("grid", [E.PIXEL_GRID, E.LATENT_GRID], ids=["pixel", "latent"])
    def test_masses_match_pmf_table(self, grid, rng):
        # at determinized parameters each row's mass at every interior
        # symbol is its gmm_pmf_table entry; the end bins, which take the
        # tails there, are left out. Where the table folds a component's
        # tail to zero the mass keeps at most ndtr(-TAIL_Z) ~ 9.5e-18 of
        # it, under atol; v ± step/2 and the grid's edges differ in their
        # last bits in 29% of pixel bins, under rtol
        rows, k = 400, 3
        w = rng.dirichlet(np.ones(k), size=rows)
        mu = rng.uniform(grid.value(grid.lo), grid.value(grid.hi), size=(rows, k))
        sd = np.exp(rng.uniform(np.log(SCALE_FLOOR), np.log(grid.span), size=(rows, k)))
        w, mu, sd = E.determinize(w, mu, sd, grid)
        s = np.arange(grid.lo + 1, grid.hi)
        shape = (rows, s.size, k)
        params = [T.Tensor(np.broadcast_to(p[:, None], shape)) for p in (w, mu, sd)]
        values = T.Tensor(np.broadcast_to(grid.value(s), shape[:-1]))
        with T.no_grad(), np.errstate(divide="ignore"):  # far bins underflow to -inf
            masses = np.exp(_mixture_log_masses(params, values, grid).data)
        np.testing.assert_allclose(masses, E.gmm_pmf_table(w, mu, sd, grid)[:, 1:-1],
                                   rtol=1e-9, atol=1e-17)

    @pytest.mark.parametrize("term", [0, 1, 2], ids=["z", "y", "x"])
    def test_gradient(self, term, rng, kink_guard):
        # each term against finite differences in every 5th y entry and
        # every z entry; a term that does not read y or z has no gradient
        # there, and its differences are zero. The x term sums 768 logs to
        # about -4,500, so its differences carry rounding near 2e-5 of the
        # largest gradient; the z and y terms agree to 2e-7
        m = Model(ModelConfig(filters_n=4, mixtures_k=1, use_attention=False)).init_random(4)
        x = T.Tensor(channel_last(rng.normal(scale=0.5, size=(1, 3, 16, 16))))
        y_data = rng.normal(size=(1, 4, 4, 4))
        z_data = rng.normal(scale=3.0, size=(1, 1, 1, 4))
        picked = np.arange(0, y_data.size, 5)
        y, z = T.Tensor(y_data, requires_grad=True), T.Tensor(z_data, requires_grad=True)
        log_masses(m, x, y, z)[term].backward()
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in (y, z)]

        def fn(y_picked, z_values):
            y_values = y_data.copy()
            y_values.reshape(-1)[picked] = y_picked
            return log_masses(m, x, T.Tensor(y_values), T.Tensor(z_values))[term].item()

        fd = finite_difference(fn, [y_data.reshape(-1)[picked], z_data.copy()], kink_guard)
        assert rel_err(grads[0].reshape(-1)[picked], fd[0]) < 1e-4
        assert rel_err(grads[1], fd[1]) < 1e-4

    def test_no_grad_matches_recording(self, model, rng):
        x = T.Tensor(channel_last(rng.normal(size=(1, 3, 16, 16))))
        y = T.Tensor(channel_last(rng.normal(size=(1, 8, 4, 4))))
        z = T.Tensor(channel_last(rng.normal(size=(1, 8, 1, 1))))
        assert_no_grad_matches_recording(lambda: log_masses(model, x, y, z))

    @pytest.mark.parametrize("use_context_x, message", [
        (True, "spatial mismatch"), (False, "values of shape")], ids=["context", "no-context"])
    @pytest.mark.parametrize("x_shape", [(1, 1, 1, 3), (1, 16, 1, 3)], ids=["1x1", "16x1"])
    def test_mis_sized_x_rejected(self, use_context_x, message, x_shape, rng):
        # without the pixel context nothing else reads x, which would
        # broadcast against the 16x16 heads into a 16x16 rate
        m = Model(ModelConfig(filters_n=8, mixtures_k=2,
                              use_context_x=use_context_x)).init_random(3)
        y = T.Tensor(channel_last(rng.normal(size=(1, 8, 4, 4))))
        z = T.Tensor(channel_last(rng.normal(size=(1, 8, 1, 1))))
        with pytest.raises(ContractViolation, match=message):
            log_masses(m, T.Tensor(rng.normal(size=x_shape)), y, z)
