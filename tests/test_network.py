"""Network tests: shape chains, determinism, causality through the heads,
the no_grad forward path, initialization contracts, ablation key sets,
config text and weight serialization."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from nlic import entropy as E
from nlic import tensor as T
from nlic.entropy import SCALE_FLOOR, FactorizedPrior
from nlic.errors import ConfigError, ContractViolation
from nlic.network import (
    AttentionBlock,
    GmmParams,
    Model,
    ModelConfig,
    _ParamStore,
    canonical_config_text,
    config_hash,
    deserialize_weights,
    init_weights,
    parse_config_text,
    serialize_weights,
    weight_hash,
)

from conftest import finite_difference, rel_err


def assert_no_grad_matches_recording(run):
    """run() gives a Tensor or GmmParams. With recording on, every output
    must carry a graph; under no_grad the same data with none."""
    def outputs(result):
        return list(vars(result).values()) if isinstance(result, GmmParams) else [result]

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
    return init_weights(small_config, seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(mixtures_k=0)
        with pytest.raises(ConfigError):
            ModelConfig(filters_n=2)
        with pytest.raises(ConfigError):
            ModelConfig(downsample_factor=3)
        with pytest.raises(ConfigError):
            ModelConfig(mask_kernel_x=3)

    @pytest.mark.parametrize("key, value", [
        ("filters_n", 2 ** 17 + 1), ("filters_n", 3_000_000_000), ("mixtures_k", 65),
        ("downsample_factor", 128), ("hyper_downsample", 2 ** 40)])
    def test_values_above_bounds_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value})
        text = f"{key}={value}\n"
        with pytest.raises(ConfigError, match=key):
            Model(parse_config_text(text))
        blob = (b"NLW1" + struct.pack("<I", len(text)) + text.encode()
                + struct.pack("<IQ", 0, 0))
        with pytest.raises(ConfigError, match=key):
            deserialize_weights(blob)

    def test_largest_values_accepted(self):
        n = 2 ** 17
        cfg = ModelConfig(filters_n=n, mixtures_k=64, downsample_factor=64,
                          hyper_downsample=64)
        assert Model(cfg).params["head_y.conv2.w"].shape == (3 * 64 * n, 3 * n, 1, 1)

    def test_canonical_text_round_trip(self):
        cfg = ModelConfig(filters_n=16, use_attention=False, mask_kernel_x=5)
        assert parse_config_text(canonical_config_text(cfg)) == cfg

    def test_hash_distinguishes_configs(self):
        a = config_hash(ModelConfig(filters_n=16))
        b = config_hash(ModelConfig(filters_n=32))
        assert a != b and len(a) == 32

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("filters_n=8\nbogus=1\n")

    @pytest.mark.parametrize("text", ["filters_n=8\nfilters_n=16\n",
                                      "filters_n=8\n filters_n = 8\n"],
                             ids=["different", "same"])
    def test_duplicated_key_rejected(self, text):
        with pytest.raises(ConfigError, match="filters_n"):
            parse_config_text(text)

    @pytest.mark.parametrize("raw", ["abc", "", "8.0", "0x10"])
    def test_non_integer_rejected(self, raw):
        with pytest.raises(ConfigError, match="filters_n"):
            parse_config_text(f"filters_n={raw}\n")

    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("TRUE", True), ("1", True), ("Yes", True),
        ("false", False), ("False", False), ("0", False), ("NO", False)])
    def test_bool_literals(self, raw, value):
        assert parse_config_text(f"use_attention={raw}\n").use_attention is value

    @pytest.mark.parametrize("raw", ["maybe", "", "2", "on", "t"])
    def test_bool_outside_literals_rejected(self, raw):
        with pytest.raises(ConfigError, match="use_attention"):
            parse_config_text(f"use_attention={raw}\n")


class TestShapes:
    def test_default_shape_chain(self):
        m = init_weights(ModelConfig(filters_n=32), seed=1)
        x = T.Tensor(np.zeros((1, 3, 16, 16)))
        y = m.analysis(x)
        assert y.shape == (1, 32, 4, 4)
        z = m.hyper_analysis(y)
        assert z.shape == (1, 32, 1, 1)
        hf = m.hyper_synthesis(z)
        assert hf.shape == (1, 64, 4, 4)
        pf = m.synthesis(y)
        assert pf.shape == (1, 32, 16, 16)

    def test_indivisible_dims_rejected(self, model):
        with pytest.raises(ContractViolation, match="divisible"):
            model.analysis(T.Tensor(np.zeros((1, 3, 15, 16))))

    def test_determinism(self, model, rng):
        x = T.Tensor(rng.normal(size=(1, 3, 16, 16)))
        a = model.analysis(x).data
        b = model.analysis(T.Tensor(x.data.copy())).data
        np.testing.assert_array_equal(a, b)

    def test_zero_weights_zero_input(self, small_config):
        m = Model(small_config)  # all-zero parameters
        x = T.Tensor(np.zeros((1, 3, 16, 16)))
        assert np.all(m.analysis(x).data == 0.0)

    def test_no_grad_matches_recording(self, model, rng):
        x = T.Tensor(rng.normal(size=(1, 3, 16, 16)))
        y = T.Tensor(rng.normal(size=(1, 8, 4, 4)))
        z = T.Tensor(rng.normal(size=(1, 8, 1, 1)))
        assert_no_grad_matches_recording(lambda: model.analysis(x))
        assert_no_grad_matches_recording(lambda: model.synthesis(y))
        assert_no_grad_matches_recording(lambda: model.hyper_analysis(y))
        assert_no_grad_matches_recording(lambda: model.hyper_synthesis(z))


class TestEntropyParams:
    def test_weights_sum_to_one(self, model, rng):
        hf = T.Tensor(rng.normal(size=(1, 16, 4, 4)))
        y_ctx = T.Tensor(rng.normal(size=(1, 8, 4, 4)))
        params = model.entropy_params_y(hf, y_ctx)
        assert params.weights.shape == (1, 4, 4, 8, 2)
        np.testing.assert_allclose(params.weights.data.sum(axis=-1), 1.0, atol=1e-9)
        assert (params.scales.data >= SCALE_FLOOR).all()

    def test_pixel_params_shapes(self, model, rng):
        pf = T.Tensor(rng.normal(size=(1, 8, 16, 16)))
        x_ctx = T.Tensor(rng.normal(size=(1, 3, 16, 16)))
        params = model.entropy_params_x(pf, x_ctx)
        assert params.weights.shape == (1, 16, 16, 3, 2)
        np.testing.assert_allclose(params.weights.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_spatial_mismatch_rejected(self, model, rng):
        hf = T.Tensor(rng.normal(size=(1, 16, 4, 4)))
        y_ctx = T.Tensor(rng.normal(size=(1, 8, 5, 5)))
        with pytest.raises(ContractViolation, match="mismatch"):
            model.entropy_params_y(hf, y_ctx)

    def test_context_disabled_ignores_input(self, rng):
        cfg = ModelConfig(filters_n=8, mixtures_k=2, use_context_y=False,
                          use_context_x=False)
        m = init_weights(cfg, seed=3)
        hf = T.Tensor(rng.normal(size=(1, 16, 4, 4)))
        a = m.entropy_params_y(hf, T.Tensor(rng.normal(size=(1, 8, 4, 4))))
        b = m.entropy_params_y(hf, T.Tensor(rng.normal(size=(1, 8, 4, 4))))
        for field in ("weights", "means", "scales"):
            np.testing.assert_array_equal(getattr(a, field).data,
                                          getattr(b, field).data)

    @pytest.mark.parametrize("path", ["y", "x"])
    def test_exhaustive_raster_causality(self, model, rng, path):
        # perturb each position of a 6x6 input; everything raster-earlier in
        # the emitted params must stay bit-identical
        if path == "y":
            feat = T.Tensor(rng.normal(size=(1, 16, 6, 6)))
            ctx0 = rng.normal(size=(1, 8, 6, 6))
            run = lambda ctx: model.entropy_params_y(feat, T.Tensor(ctx))
            channels = ctx0.shape[1]
        else:
            feat = T.Tensor(rng.normal(size=(1, 8, 6, 6)))
            ctx0 = rng.normal(size=(1, 3, 6, 6))
            run = lambda ctx: model.entropy_params_x(feat, T.Tensor(ctx))
            channels = 3
        with T.no_grad():
            base = run(ctx0)
            for p in range(36):
                i, j = divmod(p, 6)
                ctx = ctx0.copy()
                ctx[0, rng.integers(channels), i, j] += 1.0 + rng.random()
                out = run(ctx)
                for field in ("weights", "means", "scales"):
                    a = getattr(base, field).data.reshape(1, 36, -1)
                    b = getattr(out, field).data.reshape(1, 36, -1)
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
                params = model.entropy_params_y(T.Tensor(rng.normal(size=(1, 16, 6, 8))),
                                                T.Tensor(rng.normal(size=(1, 8, 6, 8))))
                kernel, grid = 5, E.LATENT_GRID
            else:
                params = model.entropy_params_x(T.Tensor(rng.normal(size=(1, 8, 6, 8))),
                                                T.Tensor(rng.normal(size=(1, 3, 6, 8))))
                kernel, grid = model.config.mask_kernel_x, E.PIXEL_GRID
        fields = [params.weights.data, params.means.data, params.scales.data]
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

    def test_no_grad_matches_recording(self, model, rng):
        hf = T.Tensor(rng.normal(size=(1, 16, 4, 4)))
        y_ctx = T.Tensor(rng.normal(size=(1, 8, 4, 4)))
        pf = T.Tensor(rng.normal(size=(1, 8, 16, 16)))
        x_ctx = T.Tensor(rng.normal(size=(1, 3, 16, 16)))
        z = T.Tensor(rng.normal(scale=20.0, size=(1, 2, 2, 8)))  # channel-last
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
        x = rng.normal(size=(1, 4, 6, 6))
        out = attn(T.Tensor(x))
        assert out.shape == x.shape

        tensors = [T.Tensor(x, requires_grad=True)]
        loss = T.reduce_sum(T.square(attn(tensors[0])))
        loss.backward()

        def scalar_fn(arr):
            return T.reduce_sum(T.square(attn(T.Tensor(arr)))).item()

        fd = finite_difference(scalar_fn, [x.copy()], kink_guard)
        assert rel_err(tensors[0].grad, fd[0]) < 1e-4

    def test_zeroed_finals_identity(self, rng):
        store = _ParamStore()
        attn = AttentionBlock(store, "attn", 4)
        for name, t in store.params.items():
            t.data = rng.normal(scale=0.2, size=t.data.shape)
        x = rng.normal(size=(1, 4, 6, 6))
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


class TestInit:
    def test_deterministic(self, small_config):
        a = init_weights(small_config, seed=7).state()
        b = init_weights(small_config, seed=7).state()
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_seed_changes_weights(self, small_config):
        a = init_weights(small_config, seed=7).state()
        b = init_weights(small_config, seed=8).state()
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_initial_params_on_zero_image(self, model):
        x = T.Tensor(np.zeros((1, 3, 16, 16)))
        y = model.analysis(x)
        hf = model.hyper_synthesis(model.hyper_analysis(y))
        params = model.entropy_params_y(hf, y)
        np.testing.assert_allclose(params.weights.data, 0.5, atol=0.02)
        np.testing.assert_allclose(params.scales.data, 1.0, atol=0.05)
        pf = model.synthesis(y)
        px = model.entropy_params_x(pf, x)
        np.testing.assert_allclose(px.weights.data, 0.5, atol=0.02)
        np.testing.assert_allclose(px.scales.data, 1.0, atol=0.05)

    def test_ablation_key_sets_shrink(self):
        base = set(init_weights(ModelConfig(filters_n=8), 0).params)
        no_attn = set(init_weights(ModelConfig(filters_n=8, use_attention=False), 0).params)
        no_ctx = set(init_weights(ModelConfig(filters_n=8, use_context_x=False), 0).params)
        assert no_attn < base
        assert no_ctx < base
        assert all(k.startswith(("ga.attn", "gs.attn")) for k in base - no_attn)
        assert all(k.startswith("ctx_x") for k in base - no_ctx)

    def test_prior_matches_factorized_prior_init(self, small_config):
        model = init_weights(small_config, seed=3)
        want = FactorizedPrior.init(small_config.filters_n).pmf_table(E.LATENT_GRID)
        assert np.array_equal(model.prior.pmf_table(E.LATENT_GRID), want)

    def test_shared_keys_get_identical_values(self):
        full = init_weights(ModelConfig(filters_n=8), 5)
        ablated = init_weights(ModelConfig(filters_n=8, use_attention=False), 5)
        for k in ablated.params:
            np.testing.assert_array_equal(full.params[k].data, ablated.params[k].data)


class TestSerialization:
    def test_round_trip_bit_exact(self, model):
        blob = serialize_weights(model)
        assert blob[:4] == b"NLW1"
        restored = deserialize_weights(blob)
        assert restored.config == model.config
        for k, t in model.params.items():
            np.testing.assert_array_equal(restored.params[k].data, t.data)
        assert serialize_weights(restored) == blob

    def test_bytes_pinned(self, model):
        # filters_n=8, mixtures_k=2, init seed 0: every init kind, the
        # parameter order and the manifest layout
        assert hashlib.sha256(serialize_weights(model)).hexdigest() == (
            "53b88b75dfdd9f04150ed08b9283a455bc4da612366508a8631136d6d46ff011")

    def test_weight_hash_stable(self, model):
        assert weight_hash(model) == weight_hash(model)
        other = init_weights(model.config, seed=99)
        assert weight_hash(model) != weight_hash(other)

    def test_file_round_trip(self, model, tmp_path):
        from nlic.network import load_weights, save_weights

        path = tmp_path / "model.nlw"
        save_weights(model, path)
        restored = load_weights(path)
        for k, t in model.params.items():
            np.testing.assert_array_equal(restored.params[k].data, t.data)

    def test_load_rejects_key_mismatch(self, model):
        state = model.state()
        state.pop("ga.out.w")
        with pytest.raises(ContractViolation, match="missing"):
            Model(model.config).load_state(state)


class TestWeightsParsing:
    """Malformed NLW1 blobs raise ContractViolation (ConfigError for the
    config text), never struct.error, ValueError or UnicodeDecodeError."""

    @pytest.fixture(scope="class")
    def blob(self):
        return serialize_weights(init_weights(ModelConfig(filters_n=4, mixtures_k=1), 0))

    @staticmethod
    def data_start(blob):
        model = deserialize_weights(blob)
        return len(blob) - 8 * sum(t.data.size for t in model.params.values())

    def test_every_prefix_before_data_rejected(self, blob):
        for cut in range(self.data_start(blob) + 1):
            with pytest.raises(ContractViolation):
                deserialize_weights(blob[:cut])

    def test_prefixes_inside_data_rejected(self, blob):
        for cut in range(self.data_start(blob) + 1, len(blob), 997):
            with pytest.raises(ContractViolation, match="truncated"):
                deserialize_weights(blob[:cut])

    @pytest.mark.parametrize("offset", ["last-value", "max"])
    def test_offset_past_data_rejected(self, blob, offset):
        # the last manifest entry (prior.a2, filters_n = 4 values) has its
        # data offset just before the data_len field
        start = self.data_start(blob)
        (data_len,) = struct.unpack_from("<Q", blob, start - 8)
        value = data_len - 8 if offset == "last-value" else 2 ** 64 - 1
        bad = blob[:start - 16] + struct.pack("<Q", value) + blob[start - 8:]
        with pytest.raises(ContractViolation, match="past"):
            deserialize_weights(bad)

    @pytest.mark.parametrize("tail", [b"\x00", b"junk"])
    def test_trailing_bytes_rejected(self, blob, tail):
        with pytest.raises(ContractViolation, match="follow"):
            deserialize_weights(blob + tail)

    def test_non_utf8_key_rejected(self, blob):
        (cfg_len,) = struct.unpack_from("<I", blob, 4)
        first_key = 8 + cfg_len + 4 + 2
        bad = blob[:first_key] + b"\xff" + blob[first_key + 1:]
        with pytest.raises(ContractViolation, match="key mismatch"):
            deserialize_weights(bad)

    def test_duplicated_key_rejected(self, blob):
        # list the first manifest entry twice: one more entry, same data
        (cfg_len,) = struct.unpack_from("<I", blob, 4)
        count_at = 8 + cfg_len
        (n_params,) = struct.unpack_from("<I", blob, count_at)
        first = count_at + 4
        (key_len,) = struct.unpack_from("<H", blob, first)
        (ndim,) = struct.unpack_from("<B", blob, first + 2 + key_len)
        end = first + 2 + key_len + 1 + 4 * ndim + 8
        key = blob[first + 2:first + 2 + key_len].decode()
        bad = (blob[:count_at] + struct.pack("<I", n_params + 1) + blob[first:end]
               + blob[first:])
        with pytest.raises(ContractViolation, match=f"{key!r} is given twice"):
            deserialize_weights(bad)

    def test_non_utf8_config_text_rejected(self, blob):
        bad = blob[:8] + b"\xff" + blob[9:]
        with pytest.raises(ConfigError, match="UTF-8"):
            deserialize_weights(bad)

    @pytest.mark.parametrize("filters_n", [128, 100000])
    def test_config_alone_allocates_nothing(self, filters_n):
        # config text and an empty manifest: the model the text names is
        # never filled, so building it must not allocate its weights
        text = f"filters_n={filters_n}\n".encode()
        blob = b"NLW1" + struct.pack("<I", len(text)) + text + struct.pack("<IQ", 0, 0)
        tracemalloc.start()
        try:
            with pytest.raises(ContractViolation, match="key mismatch"):
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
        z = rng.normal(scale=3.0, size=(1, 2, 2, 8))  # channel-last

        def rate():
            upper, lower = model.prior.cdf(z + 0.5), model.prior.cdf(z - 0.5)
            return T.reduce_sum(T.log(T.sub(upper, lower)))

        rate().backward()
        arrays = [model.params[name].data for name in names]
        fd = finite_difference(lambda *_: rate().item(), arrays, kink_guard)
        for name, want in zip(names, fd, strict=True):
            assert rel_err(model.params[name].grad, want) < 1e-5, name

    def test_hyper_path_gradient(self, small_config, rng, kink_guard):
        m = init_weights(small_config, seed=2)
        y_data = rng.normal(size=(1, 8, 4, 4)) * 0.1

        def fn(y):
            hf = m.hyper_synthesis(m.hyper_analysis(y))
            return T.reduce_sum(T.square(hf))

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
        cfg = ModelConfig(filters_n=4, mixtures_k=1, downsample_factor=2,
                          hyper_downsample=2, use_attention=False)
        m = init_weights(cfg, seed=4)
        x = T.Tensor(rng.normal(size=(1, 3, 4, 4)))
        grads = []
        for _ in range(2):
            for t in m.params.values():
                t.grad = None
            T.reduce_sum(T.square(m.synthesis(m.analysis(x)))).backward()
            grads.append({k: t.grad for k, t in m.params.items() if t.grad is not None})
        assert grads[0] and grads[0].keys() == grads[1].keys()
        for k in grads[0]:
            np.testing.assert_array_equal(grads[0][k], grads[1][k])

    def test_analysis_synthesis_end_to_end_gradient(self, rng, kink_guard):
        cfg = ModelConfig(filters_n=4, mixtures_k=1, downsample_factor=2,
                          hyper_downsample=2, use_attention=False)
        m = init_weights(cfg, seed=4)
        x_data = rng.normal(size=(1, 3, 4, 4)) * 0.5

        def fn(x):
            return T.reduce_sum(T.square(m.synthesis(m.analysis(x))))

        xt = T.Tensor(x_data, requires_grad=True)
        fn(xt).backward()
        fd = finite_difference(lambda a: fn(T.Tensor(a)).item(), [x_data.copy()],
                               kink_guard)
        assert rel_err(xt.grad, fd[0]) < 1e-4
