"""Training loop: stepping, lr decay, loss-curve logging, checkpoint/resume."""

from __future__ import annotations

import re

import numpy as np
import pytest

from helpers import overfit_shapes

from duinnet import tensor as T
from duinnet.model import DuInNet, mini_config
from duinnet.training import TrainState, train_loop


@pytest.fixture(scope="module")
def shapes():
    return overfit_shapes()


def _buffers(model):
    return [buf for _, buf in model.named_buffers()]


def _snapshot(state):
    return ([p.data.copy() for p in state.params], [m.copy() for m in state.opt.m],
            [v.copy() for v in state.opt.v], [b.copy() for b in _buffers(state.model)],
            state.step, state.opt.t)


def _assert_unchanged(state, before):
    params, m, v, buffers, step, t = before
    assert (state.step, state.opt.t) == (step, t)
    for old, new in ((params, [p.data for p in state.params]), (m, state.opt.m),
                     (v, state.opt.v), (buffers, _buffers(state.model))):
        assert len(old) == len(new)
        # equal_nan: a test may plant NaN in a parameter before the snapshot
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(old, new))


def test_train_step_returns_finite_scalar(shapes):
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    partial, image, gt = shapes[0]
    loss = state.train_step(partial, image, gt)
    assert np.isfinite(loss) and loss > 0
    assert state.step == 1


def test_lr_decays_by_tenth_at_configured_steps(shapes):
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3, decay_steps=(2, 4))
    assert state._current_lr() == pytest.approx(1e-3)
    state.step = 2
    assert state._current_lr() == pytest.approx(1e-4)
    state.step = 5
    assert state._current_lr() == pytest.approx(1e-5)


def test_train_loop_writes_curve_rows(tmp_path, shapes):
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    curve_path = tmp_path / "curve.tsv"
    curve = train_loop(state, shapes[:2], 4, curve_path=curve_path)
    assert [step for step, _ in curve] == [0, 1, 2, 3]
    rows = curve_path.read_text().strip().splitlines()
    assert len(rows) == 4
    step, loss = rows[0].split("\t")
    assert int(step) == 0 and float(loss) == pytest.approx(curve[0][1], rel=1e-6)


def test_train_loop_raises_on_nonfinite_loss(shapes):
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    state.named["apg.pc_blocks.0.linear2.weight"].data[...] = np.nan
    with pytest.raises(FloatingPointError):
        train_loop(state, shapes[:1], 1)


def test_nan_weight_step_leaves_state_unchanged(shapes):
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes[:2], 2)
    state.named["apg.pc_blocks.0.linear2.weight"].data[...] = np.nan
    before = _snapshot(state)
    with pytest.raises(FloatingPointError):
        state.train_step(*shapes[0])
    _assert_unchanged(state, before)


def test_nonfinite_loss_leaves_state_unchanged(shapes):
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes[:2], 2)
    before = _snapshot(state)
    partial, image, gt = shapes[0]
    gt = gt.copy()
    gt[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        state.train_step(partial, image, gt)
    assert state.step == 2 and state.opt.t == 2
    _assert_unchanged(state, before)


def test_nan_generated_point_raises_before_update(shapes, monkeypatch):
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes[:2], 2)
    apg = state.model.apg

    def apg_with_nan_point(*args):
        out = apg(*args)
        out.data[5] = np.nan
        return out

    monkeypatch.setattr(state.model, "apg", apg_with_nan_point)
    before = _snapshot(state)
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        state.train_step(*shapes[0])
    _assert_unchanged(state, before)


def test_nonfinite_gradient_with_finite_loss_raises_before_update(shapes, monkeypatch):
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes[:2], 2)
    name = "apg.pc_blocks.0.linear2.weight"
    w, loss = state.named[name], state.model.loss

    def loss_with_nan_gradient(out, gt, mode="standard"):
        # a node worth 0 whose backward writes NaN into one parameter's gradient
        nan_grad = T._make(np.zeros((), dtype=w.dtype), "nan_grad", (w,),
                           lambda g: w._accumulate(np.full_like(w.data, np.nan)))
        return T.add(loss(out, gt, mode), nan_grad)

    monkeypatch.setattr(state.model, "loss", loss_with_nan_gradient)
    before = _snapshot(state)
    with pytest.raises(FloatingPointError, match=f"non-finite gradient of '{name}'"):
        state.train_step(*shapes[0])
    _assert_unchanged(state, before)


@pytest.mark.parametrize("prefix", ["", "opt.m.", "opt.v."], ids=["param", "m", "v"])
def test_restore_rejects_misshaped_entry_before_any_change(tmp_path, shapes, prefix):
    source = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(source, shapes[:1], 1)
    source.save(tmp_path / "a.ckpt")
    arrays = T.load_checkpoint(tmp_path / "a.ckpt")
    target = TrainState(DuInNet(mini_config(), seed=1), lr=1e-3)
    key = prefix + list(target.named)[-1]  # last, so setting while checking would set the rest
    arrays[key] = np.zeros((1, 1), dtype=np.float32)
    before = _snapshot(target)
    with pytest.raises(ValueError, match=re.escape(f"'{key}'")):
        target.restore(arrays)
    _assert_unchanged(target, before)


def test_restore_rejects_misshaped_buffer_before_any_change(tmp_path, shapes):
    source = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(source, shapes[:1], 1)
    source.save(tmp_path / "a.ckpt")
    arrays = T.load_checkpoint(tmp_path / "a.ckpt")
    target = TrainState(DuInNet(mini_config(), seed=1), lr=1e-3)
    key = "buf." + [name for name, _ in target.model.named_buffers()][-1]
    arrays[key] = np.zeros(3, dtype=np.float32)
    before = _snapshot(target)
    with pytest.raises(ValueError, match=re.escape(f"'{key}'")):
        target.restore(arrays)
    _assert_unchanged(target, before)


def _eval_outputs(model, shapes):
    model.eval()
    with T.no_grad():
        return [model(partial, image)["p_gen2"].data for partial, image, _ in shapes[:3]]


def test_checkpoint_carries_batchnorm_buffers(tmp_path, shapes):
    trained = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(trained, shapes[:4], 20)
    trained.save(tmp_path / "a.ckpt")
    arrays = T.load_checkpoint(tmp_path / "a.ckpt")
    names = [name for name, _ in trained.model.named_buffers()]
    assert names and all(f"buf.{name}" in arrays for name in names)

    fresh = DuInNet(mini_config(), seed=1)
    fresh.load_state_dict(arrays)  # the loader `duinnet eval --checkpoint` uses
    for got, want in zip(_eval_outputs(fresh, shapes), _eval_outputs(trained.model, shapes)):
        assert np.array_equal(got, want)


def test_checkpoint_without_buffers_loads_with_initial_statistics(tmp_path, shapes):
    trained = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(trained, shapes[:2], 2)
    trained.save(tmp_path / "a.ckpt")
    arrays = {k: v for k, v in T.load_checkpoint(tmp_path / "a.ckpt").items()
              if not k.startswith("buf.")}
    resumed = TrainState(DuInNet(mini_config(), seed=1), lr=1e-3)
    resumed.restore(arrays)
    assert resumed.step == 2
    for name, buf in resumed.model.named_buffers():
        assert np.array_equal(buf, np.zeros_like(buf) if name.endswith("mean")
                              else np.ones_like(buf)), name


def test_restore_rejects_moment_without_its_pair(tmp_path, shapes):
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    state.save(tmp_path / "a.ckpt")
    arrays = T.load_checkpoint(tmp_path / "a.ckpt")
    del arrays["opt.v." + list(state.named)[-1]]
    before = _snapshot(state)
    with pytest.raises(KeyError, match="without its pair"):
        state.restore(arrays)
    _assert_unchanged(state, before)


def test_restore_rejects_moments_of_only_some_parameters(tmp_path, shapes):
    source = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(source, shapes[:1], 1)
    source.save(tmp_path / "a.ckpt")
    arrays = T.load_checkpoint(tmp_path / "a.ckpt")
    dropped = list(source.named)[-1]  # both moments of one parameter, so every pair is whole
    del arrays["opt.m." + dropped], arrays["opt.v." + dropped]
    target = TrainState(DuInNet(mini_config(), seed=1), lr=1e-3)
    before = _snapshot(target)
    with pytest.raises(KeyError, match=re.escape(f"'opt.m.{dropped}'")):
        target.restore(arrays)
    _assert_unchanged(target, before)


def _model_arrays(model):
    return [p.data for p in model.parameters()] + _buffers(model)


def _state_arrays(state):
    return _model_arrays(state.model) + state.opt.m + state.opt.v


def test_restore_and_load_state_dict_copy_into_the_existing_arrays(tmp_path, shapes):
    source = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(source, shapes[:2], 2)
    source.save(tmp_path / "a.ckpt")
    arrays = T.load_checkpoint(tmp_path / "a.ckpt")

    target = TrainState(DuInNet(mini_config(), seed=1), lr=1e-3)
    owned = _state_arrays(target)
    target.restore(arrays)
    assert all(a is b for a, b in zip(_state_arrays(target), owned))
    assert all(np.array_equal(a, b) for a, b in zip(owned, _state_arrays(source)))

    model = DuInNet(mini_config(), seed=1)
    owned = _model_arrays(model)
    model.load_state_dict(arrays)
    assert all(a is b for a, b in zip(_model_arrays(model), owned))
    assert all(np.array_equal(a, b) for a, b in zip(owned, _model_arrays(source.model)))


def test_checkpoint_resume_reproduces_uninterrupted_run(tmp_path, shapes):
    samples = shapes[:4]
    straight = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    full_curve = train_loop(straight, samples, 6)

    first = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(first, samples, 3)
    ckpt = tmp_path / "mid.ckpt"
    first.save(ckpt)

    resumed = TrainState(DuInNet(mini_config(), seed=1), lr=1e-3)
    resumed.restore(T.load_checkpoint(ckpt))
    assert resumed.step == 3 and resumed.opt.t == first.opt.t
    tail = train_loop(resumed, samples, 3)
    for (s1, l1), (s2, l2) in zip(full_curve[3:], tail):
        assert s1 == s2
        assert l1 == pytest.approx(l2, rel=1e-4)
