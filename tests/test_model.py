"""Model components: config, attention, encoders, generator, loss, checkpoints."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import attention_per_head_oracle, chamfer_dense_oracle, fps_replay_oracle

from duinnet import geometry, tensor as T
from duinnet.gradcheck import check_fn, check_module_params
from duinnet.model import DuInNet, make_config, mini_config
from duinnet.model.attention import CrossAttentionBlock, DualFeatureInteractor
from duinnet.model.config import ConfigError, ModelConfig
from duinnet.model.encoders import ImageEncoder, PointEncoder
from duinnet.model.generator import AdaptivePointGenerator, GeneratorBlock
from duinnet.model.network import assemble_outputs, chamfer_l1_t, completion_loss
from duinnet.tensor import DimensionError


@pytest.fixture(autouse=True)
def _float64_mode():
    """Component math at 64-bit keeps the finite-difference checks meaningful."""
    T.set_default_dtype(np.float64)
    yield
    T.set_default_dtype(np.float32)


# -- config ------------------------------------------------------------------------


def test_config_profiles():
    p = make_config("paper")
    assert (p.C, p.N, p.k, p.heads, p.n_blocks, p.block_points, p.image_side) == \
        (256, 2048, 16, 4, 16, 128, 224)
    m = mini_config()
    assert (m.C, m.N, m.n_blocks, m.block_points, m.image_side) == (32, 256, 4, 64, 32)


@pytest.mark.parametrize("overrides", [
    dict(n_blocks=3),                      # 3 * 64 != 256
    dict(n_img_blocks=5),                  # outside [0, 4]
    dict(heads=5),                         # 32 % 5 != 0
    dict(C=30, heads=2),                   # C not divisible by 4
    dict(N=200, n_blocks=4, block_points=50),  # N not divisible by 16
    dict(image_side=40),                   # not divisible by 16
    dict(k=0),                             # no neighbours to group
])
def test_config_invariant_violations(overrides):
    with pytest.raises(ConfigError):
        mini_config(**overrides)


def test_config_json_roundtrip():
    cfg = mini_config(n_img_blocks=1)
    again = ModelConfig.from_json(cfg.to_json())
    assert again == cfg


def test_make_config_unknown_profile():
    with pytest.raises(ConfigError):
        make_config("giant")


# -- cross attention ----------------------------------------------------------------


def _rand_block(C=8, heads=2, seed=0):
    return CrossAttentionBlock(C, heads, np.random.default_rng(seed))


def test_attention_single_kv_row_weights_are_one():
    blk = _rand_block()
    q_src = T.tensor(np.random.default_rng(1).standard_normal((5, 8)))
    kv = T.tensor(np.random.default_rng(2).standard_normal((1, 8)))
    out = blk(q_src, kv)
    for w in blk.last_attn:
        np.testing.assert_allclose(w, np.ones_like(w))
    # with L=1, each head returns its value row verbatim for every query
    q = blk.q_proj(q_src)
    v = blk.v_proj(kv)
    attn = blk.out_proj(T.tensor(np.repeat(v.data, 5, axis=0)))
    x = blk.norm1(T.add(q, attn))
    expect = blk.norm2(T.add(x, blk.ffn2(T.relu(blk.ffn1(x)))))
    np.testing.assert_allclose(out.data, expect.data, atol=1e-12)


def test_attention_row_stochastic():
    blk = _rand_block(C=16, heads=4, seed=3)
    q = T.tensor(np.random.default_rng(4).standard_normal((6, 16)))
    kv = T.tensor(np.random.default_rng(5).standard_normal((9, 16)))
    blk(q, kv)
    for w in blk.last_attn:
        assert w.shape == (6, 9)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(6), atol=1e-6)
        assert np.all(w >= 0)


@pytest.mark.parametrize("heads,C,M,L", [
    (1, 3, 5, 7), (2, 8, 1, 6), (2, 6, 4, 1), (4, 16, 9, 11), (4, 8, 1, 1), (4, 12, 7, 3),
])
def test_attention_matches_per_head_oracle(heads, C, M, L):
    rng = np.random.default_rng(heads * 1000 + C * 100 + M * 10 + L)
    blk = CrossAttentionBlock(C, heads, np.random.default_rng(C + M + L))
    q_src, kv_src = rng.standard_normal((M, C)), rng.standard_normal((L, C))
    probe = T.tensor(rng.standard_normal((M, C)))  # a non-uniform output gradient

    def batched():
        out = blk(T.tensor(q_src), T.tensor(kv_src))
        return out, blk.last_attn

    def run(forward):
        blk.zero_grad()
        out, weights = forward()
        T.reduce_sum(T.mul(out, probe)).backward()
        return out.data, np.stack(list(weights)), {
            n: p.grad.copy() for n, p in blk.named_parameters()}

    out, weights, grads = run(batched)
    expect, expect_weights, expect_grads = run(
        lambda: attention_per_head_oracle(blk, T.tensor(q_src), T.tensor(kv_src)))
    # each head's products are the same BLAS calls as in the loop, so the
    # results are equal, not just close
    assert blk.last_attn.shape == (heads, M, L)
    np.testing.assert_array_equal(out, expect)
    np.testing.assert_array_equal(weights, expect_weights)
    assert set(grads) == set(expect_grads)
    for name, g in grads.items():
        np.testing.assert_array_equal(g, expect_grads[name], err_msg=name)


def test_attention_rejects_width_not_divisible_by_heads():
    with pytest.raises(DimensionError):
        CrossAttentionBlock(6, 4, np.random.default_rng(0))


def test_attention_kv_permutation_invariance():
    blk = _rand_block(C=16, heads=4, seed=6)
    rng = np.random.default_rng(7)
    q = T.tensor(rng.standard_normal((5, 16)))
    kv = rng.standard_normal((11, 16))
    base = blk(q, T.tensor(kv)).data
    for _ in range(5):
        perm = rng.permutation(11)
        out = blk(q, T.tensor(kv[perm])).data
        np.testing.assert_allclose(out, base, atol=1e-6)


def test_attention_width_mismatch():
    blk = _rand_block(C=8)
    with pytest.raises(DimensionError):
        blk(T.tensor(np.zeros((3, 8))), T.tensor(np.zeros((4, 6))))


def test_attention_parameter_gradients():
    blk = _rand_block(C=8, heads=2, seed=8)
    rng = np.random.default_rng(9)
    q0, kv0 = rng.standard_normal((5, 8)), rng.standard_normal((7, 8))
    err = check_module_params(blk, lambda: T.reduce_sum(blk(T.tensor(q0), T.tensor(kv0))))
    assert err < 1e-4


# -- dual feature interactor ----------------------------------------------------------


def _tie_paths(dfi: DualFeatureInteractor) -> None:
    pc = dict(dfi.pc_path.named_parameters())
    for name, p in dfi.img_path.named_parameters():
        p.data[...] = pc[name].data


def test_dfi_shapes_paper_profile():
    dfi = DualFeatureInteractor(256, 4, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    f_pc = T.tensor(rng.standard_normal((128, 256)))
    f_img = T.tensor(rng.standard_normal((196, 256)))
    f_pc_fu, f_img_fu = dfi(f_pc, f_img)
    assert f_pc_fu.shape == (128, 256) and f_img_fu.shape == (196, 256)


def test_dfi_paths_share_no_parameters():
    dfi = DualFeatureInteractor(8, 2, np.random.default_rng(2))
    pc_params = {id(p) for p in dfi.pc_path.parameters()}
    img_params = {id(p) for p in dfi.img_path.parameters()}
    assert not pc_params & img_params


def test_dfi_tied_parameters_swap_symmetry():
    dfi = DualFeatureInteractor(8, 2, np.random.default_rng(3))
    _tie_paths(dfi)
    rng = np.random.default_rng(4)
    a = T.tensor(rng.standard_normal((5, 8)))
    b = T.tensor(rng.standard_normal((7, 8)))
    out_ab = dfi(a, b)
    out_ba = dfi(b, a)
    np.testing.assert_allclose(out_ab[0].data, out_ba[1].data, atol=1e-12)
    np.testing.assert_allclose(out_ab[1].data, out_ba[0].data, atol=1e-12)


def test_dfi_zero_image_and_biases_kills_value_path():
    dfi = DualFeatureInteractor(8, 2, np.random.default_rng(5))
    for name, p in dfi.named_parameters():
        if name.endswith("bias"):
            p.data[...] = 0.0
    ca1 = dfi.pc_path.ca1
    f_pc = T.tensor(np.random.default_rng(6).standard_normal((5, 8)))
    out = ca1(f_pc, T.tensor(np.zeros((7, 8))))
    # V = 0, so attention contributes nothing: output is the norm/FFN pipeline
    # applied to the projected query alone
    x = ca1.norm1(ca1.q_proj(f_pc))
    expect = ca1.norm2(T.add(x, ca1.ffn2(T.relu(ca1.ffn1(x)))))
    np.testing.assert_allclose(out.data, expect.data, atol=1e-12)


# -- encoders ----------------------------------------------------------------------


def test_point_encoder_mini_shape():
    enc = PointEncoder(mini_config(), np.random.default_rng(0))
    enc.eval()
    pts = np.random.default_rng(1).standard_normal((256, 3)) * 0.4
    out = enc(pts)
    assert out.shape == (16, 32)


def test_point_encoder_paper_shape():
    enc = PointEncoder(make_config("paper"), np.random.default_rng(20))
    enc.eval()
    pts = np.random.default_rng(21).standard_normal((2048, 3)) * 0.4
    assert enc(pts).shape == (128, 256)


def test_point_encoder_rejects_bad_point_count():
    with pytest.raises(ConfigError):
        mini_config(N=250, n_blocks=5, block_points=50)


def test_point_encoder_permutation_invariant_row_set():
    enc = PointEncoder(mini_config(), np.random.default_rng(2))
    enc.eval()
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((256, 3)) * 0.4
    base = enc(pts).data
    perm = rng.permutation(256)
    permuted = enc(pts[perm]).data
    order = lambda rows: rows[np.lexsort(rows.T[::-1])]
    np.testing.assert_allclose(order(base), order(permuted), atol=1e-8)


def test_image_encoder_mini_shape():
    enc = ImageEncoder(mini_config(), np.random.default_rng(4))
    enc.eval()
    out = enc(np.random.default_rng(5).random((32, 32, 3)))
    assert out.shape == (4, 32)


def test_image_encoder_rejects_wrong_resolution():
    enc = ImageEncoder(mini_config(), np.random.default_rng(6))
    with pytest.raises(ValueError):
        enc(np.zeros((16, 16, 3)))


def test_conv_constant_input_translation_invariance():
    """Without padding, convolving a constant image yields a constant map."""
    rng = np.random.default_rng(7)
    w = T.tensor(rng.standard_normal((3, 3, 2, 5)))
    b = T.tensor(rng.standard_normal(5))
    out = T.conv2d(T.tensor(np.full((10, 10, 2), 0.3)), w, b, stride=1, padding=0).data
    np.testing.assert_allclose(out, np.broadcast_to(out[0, 0], out.shape), atol=1e-12)


def test_image_encoder_constant_image_interior_tokens_agree():
    """Interior patch features on a constant image agree up to border leakage
    through the padded convolutions."""
    enc = ImageEncoder(mini_config(image_side=96), np.random.default_rng(8))
    enc.eval()
    out = enc(np.full((96, 96, 3), 0.7)).data.reshape(6, 6, 32)
    inner = out[2:4, 2:4].reshape(4, 32)
    spread = np.abs(inner - inner[0]).max()
    assert spread < 0.1 * np.abs(inner).max()


# -- adaptive point generator ---------------------------------------------------------


def test_apg_output_size():
    cfg = mini_config()
    apg = AdaptivePointGenerator(cfg, np.random.default_rng(0))
    apg.eval()
    rng = np.random.default_rng(1)
    out = apg(T.tensor(rng.standard_normal((16, 32))),
              T.tensor(rng.standard_normal((4, 32))))
    assert out.shape == (256, 3)


def test_apg_zero_image_blocks_ignores_image_features():
    cfg = mini_config(n_img_blocks=0)
    apg = AdaptivePointGenerator(cfg, np.random.default_rng(2))
    apg.eval()
    rng = np.random.default_rng(3)
    f_pc = T.tensor(rng.standard_normal((16, 32)))
    base = apg(f_pc, T.tensor(rng.standard_normal((4, 32)))).data
    again = apg(f_pc, T.tensor(rng.standard_normal((4, 32)) * 100)).data
    np.testing.assert_array_equal(base, again)


def test_apg_block_independence():
    cfg = mini_config(n_img_blocks=2)
    rng = np.random.default_rng(4)
    f_pc = T.tensor(rng.standard_normal((16, 32)))
    f_img = T.tensor(rng.standard_normal((4, 32)))
    bp = cfg.block_points
    for i in range(cfg.n_blocks):
        apg = AdaptivePointGenerator(cfg, np.random.default_rng(5))
        apg.eval()
        base = apg(f_pc, f_img).data.copy()
        blocks = apg.pc_blocks + apg.img_blocks
        for p in blocks[i].parameters():
            p.data += 0.05
        out = apg(f_pc, f_img).data
        changed = np.any(out != base, axis=1)
        assert changed[i * bp:(i + 1) * bp].any()
        outside = np.concatenate([changed[:i * bp], changed[(i + 1) * bp:]])
        assert not outside.any()


def test_generator_block_parameter_gradients():
    blk = GeneratorBlock(8, 4, np.random.default_rng(6))
    blk.eval()
    f0 = np.random.default_rng(7).standard_normal((6, 8))
    err = check_module_params(blk, lambda: T.reduce_sum(blk(T.tensor(f0))))
    assert err < 1e-4


# -- assemble / loss ---------------------------------------------------------------


def test_assemble_without_partial_is_fps_of_generated():
    rng = np.random.default_rng(8)
    gen = rng.standard_normal((32, 3))
    out = assemble_outputs(T.tensor(gen), np.zeros((0, 3)), 16)
    expect = gen[fps_replay_oracle(gen, 16, seed=0)]
    np.testing.assert_array_equal(out.data, expect)


def test_assemble_size_contract_and_oracle():
    rng = np.random.default_rng(9)
    gen = rng.standard_normal((40, 3))
    partial = gen[:10].copy()  # P_in subset of P_gen1 as a set
    out = assemble_outputs(T.tensor(gen), partial, 40)
    assert out.shape == (40, 3)
    cat = np.vstack([partial, gen])
    expect = cat[fps_replay_oracle(cat, 40, seed=0)]
    np.testing.assert_array_equal(out.data, expect)


def test_assemble_gradient_reaches_selected_points_only():
    gen = T.tensor(np.random.default_rng(10).standard_normal((12, 3)), requires_grad=True)
    out = assemble_outputs(gen, np.random.default_rng(11).standard_normal((6, 3)), 9)
    T.reduce_sum(out).backward()
    rows_hit = np.any(gen.grad != 0, axis=1)
    assert 0 < rows_hit.sum() <= 9


def test_loss_zero_on_perfect_match():
    pts = T.tensor(np.random.default_rng(12).standard_normal((20, 3)))
    loss = completion_loss(pts, pts, pts, "standard")
    assert float(loss.data) == pytest.approx(0.0, abs=1e-5)


def test_loss_denoising_drops_second_term():
    rng = np.random.default_rng(13)
    g1 = T.tensor(rng.standard_normal((20, 3)))
    g2 = T.tensor(rng.standard_normal((20, 3)))
    gt = T.tensor(rng.standard_normal((20, 3)))
    d = completion_loss(g1, g2, gt, "denoising")
    np.testing.assert_allclose(float(d.data), float(chamfer_l1_t(g1, gt).data), rtol=1e-15)
    s = completion_loss(g1, g2, gt, "standard")
    np.testing.assert_allclose(
        float(s.data),
        float(chamfer_l1_t(g1, gt).data) + float(chamfer_l1_t(g2, gt).data), rtol=1e-12)


@st.composite
def _chamfer_clouds(draw):
    """Two clouds of one dtype on a coarse lattice (some coordinates arbitrary),
    padded by duplicates: from 1 point up, of equal or different sizes, or equal."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))

    def cloud():
        n = draw(st.one_of(st.just(1), st.integers(1, 24)))
        coord = st.one_of(st.integers(-2, 2).map(lambda k: k / 2.0), st.floats(-2, 2))
        pts = draw(arrays(np.float64, (n, 3), elements=coord))
        return np.vstack([pts, pts[draw(st.lists(st.integers(0, n - 1), max_size=8))]])

    a = cloud()
    b = a.copy() if draw(st.booleans()) else cloud()
    return a.astype(dtype), b.astype(dtype)


@settings(max_examples=200, deadline=None)
@given(_chamfer_clouds())
def test_chamfer_matches_dense_oracle(clouds):
    a_np, b_np = clouds
    a, b = T.tensor(a_np, requires_grad=True), T.tensor(b_np, requires_grad=True)
    loss = chamfer_l1_t(a, b)
    loss.backward()
    da, db = T.tensor(a_np, requires_grad=True), T.tensor(b_np, requires_grad=True)
    dense, idx_ab, idx_ba = chamfer_dense_oracle(da, db)
    dense.backward()
    assert loss.data.dtype == dense.data.dtype == a_np.dtype
    np.testing.assert_array_equal(loss.data, dense.data)
    np.testing.assert_array_equal(geometry.nearest(b_np, a_np), idx_ab)
    np.testing.assert_array_equal(geometry.nearest(a_np, b_np), idx_ba)
    tol = 1e-5 if a_np.dtype == np.float32 else 1e-12  # gradients only sum in another order
    np.testing.assert_allclose(a.grad, da.grad, rtol=tol, atol=tol)
    np.testing.assert_allclose(b.grad, db.grad, rtol=tol, atol=tol)


def test_loss_unknown_mode():
    pts = T.tensor(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        completion_loss(pts, pts, pts, "contrastive")


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    gt = rng.standard_normal((16, 3))
    err = check_fn(lambda a: completion_loss(a, a, T.tensor(gt), "standard"),
                   [rng.standard_normal((16, 3))])
    assert err < 1e-3


# -- full network -------------------------------------------------------------------


def test_network_output_cardinality_for_any_partial_size():
    model = DuInNet(mini_config(), seed=0)
    model.eval()
    rng = np.random.default_rng(15)
    img = rng.random((32, 32, 3))
    for n_partial in (16, 256, 700):
        out = model(rng.standard_normal((n_partial, 3)) * 0.3, img)
        assert out["p_gen1"].shape == (256, 3)
        assert out["p_gen2"].shape == (256, 3)
    assert out["f_pc"].shape == (16, 32)
    assert out["f_img"].shape == (4, 32)
    assert out["f_pc_fu"].shape == (16, 32)
    assert out["f_img_fu"].shape == (4, 32)


def test_network_attention_row_stochastic_everywhere():
    model = DuInNet(mini_config(), seed=1)
    model.eval()
    rng = np.random.default_rng(16)
    model(rng.standard_normal((100, 3)) * 0.3, rng.random((32, 32, 3)))
    blocks = [blk for path in (model.dfi.pc_path, model.dfi.img_path)
              for blk in (path.ca1, path.sa, path.ca2)]
    for blk in blocks:  # forward must have populated every block
        for w in blk.last_attn:
            np.testing.assert_allclose(w.sum(axis=1), np.ones(w.shape[0]), atol=1e-6)


def test_backward_frees_every_intermediate_gradient():
    """After backward only the root and the leaves hold a gradient, and every
    taped non-leaf node requires grad."""
    model = DuInNet(mini_config(), seed=6)
    rng = np.random.default_rng(17)
    out = model(rng.standard_normal((100, 3)) * 0.3, rng.random((32, 32, 3)))
    loss = model.loss(out, rng.standard_normal((256, 3)) * 0.3)
    tape = loss.backward()
    assert loss.grad is not None
    inner = [node for node in tape.entries if node._parents and node is not loss]
    leaves = [node for node in tape.entries if node.requires_grad and not node._parents]
    assert len(inner) > 100 and len(leaves) == len(model.parameters())
    assert all(node.requires_grad for node in tape.entries if node._parents)
    assert all(node.grad is None for node in inner)
    assert all(node.grad is not None for node in leaves)


def test_no_grad_eval_forward_records_no_graph():
    model = DuInNet(mini_config(), seed=7).eval()
    rng = np.random.default_rng(18)
    partial, image = rng.standard_normal((100, 3)) * 0.3, rng.random((32, 32, 3))
    with T.no_grad():
        quiet = model(partial, image)
    loud = model(partial, image)
    for key, t in quiet.items():
        if isinstance(t, T.Tensor):
            assert t._parents == () and t._backward is None and not t.requires_grad, key
            assert np.array_equal(t.data, loud[key].data), key
    assert loud["p_gen2"]._parents and loud["p_gen2"].requires_grad


def test_network_state_dict_checkpoint_roundtrip(tmp_path):
    model = DuInNet(mini_config(), seed=2)
    path = tmp_path / "model.ckpt"
    T.save_checkpoint(path, model.state_dict())
    clone = DuInNet(mini_config(), seed=3)
    clone.load_state_dict(T.load_checkpoint(path))
    for (name, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
        np.testing.assert_allclose(a.data, b.data, atol=1e-7, err_msg=name)


def test_network_load_names_first_mismatched_parameter():
    model = DuInNet(mini_config(), seed=4)
    state = {k: v.data.copy() for k, v in model.state_dict().items()}
    bad = dict(model.named_parameters())
    first = next(iter(bad))
    state[first] = np.zeros((2, 2))
    with pytest.raises(ValueError) as exc:
        model.load_state_dict(state)
    assert first in str(exc.value)


def test_network_parameter_naming_scheme():
    names = [n for n, _ in DuInNet(mini_config(), seed=5).named_parameters()]
    assert "dfi.pc_path.ca1.q_proj.weight" in names
    assert any(n.startswith("point_encoder.") for n in names)
    assert any(n.startswith("apg.") for n in names)
