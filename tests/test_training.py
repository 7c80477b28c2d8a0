"""Training loop: stepping, lr decay, loss-curve logging, checkpoint/resume."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import adam_per_array_oracle, overfit_shapes, run_within

from duinnet import tensor as T
from duinnet.model import DuInNet, make_config, mini_config, network
from duinnet.model.encoders import ImageEncoder, PointEncoder
from duinnet.nn import Adam
from duinnet.tensor import in_turn, side_by_side
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


class _CountingState:
    """Stands in for ``TrainState``: a step adds one, a save records the step."""

    def __init__(self):
        self.step, self.saved = 0, []

    def train_step(self, partial, image, gt, mode="standard"):
        self.step += 1
        return 0.0

    def save(self, path):
        self.saved.append(self.step)


def test_train_loop_writes_each_checkpoint_once(tmp_path):
    for steps, saved in ((0, [0]), (150, [100, 150]), (200, [100, 200])):
        state = _CountingState()
        train_loop(state, [(None, None, None)], steps, checkpoint_path=tmp_path / "c.ckpt")
        assert state.saved == saved, steps


def test_train_loop_puts_the_curve_on_disk_before_each_checkpoint(tmp_path, monkeypatch, shapes):
    """A crash after a checkpoint never loses curve rows that a resume would not rewrite."""
    curve_path, seen = tmp_path / "curve.tsv", []
    save = TrainState.save

    def counting_save(self, path):
        seen.append((self.step, len(curve_path.read_text().splitlines())))
        save(self, path)

    monkeypatch.setattr(TrainState, "save", counting_save)
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes[:2], 101, curve_path=curve_path,
               checkpoint_path=tmp_path / "c.ckpt")
    assert seen == [(100, 100), (101, 101)]


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


@pytest.mark.parametrize("key,value", [
    ("meta.step", []), ("meta.step", [-3.0]), ("meta.step", [np.nan]), ("meta.step", [2.5]),
    ("meta.step", [1.0, 1.0]), ("meta.opt_t", [np.inf]), ("meta.opt_t", [-1.0]),
], ids=["step-empty", "step-negative", "step-nan", "step-fraction", "step-two",
        "opt_t-inf", "opt_t-negative"])
def test_restore_rejects_broken_counter_before_any_change(tmp_path, shapes, key, value):
    source = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(source, shapes[:1], 1)
    source.save(tmp_path / "a.ckpt")
    arrays = T.load_checkpoint(tmp_path / "a.ckpt")
    arrays[key] = np.array(value, dtype=np.float32)
    target = TrainState(DuInNet(mini_config(), seed=1), lr=1e-3)
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


# -- the optimizer's flat arena -----------------------------------------------------


def _oracle_copies(params):
    return [T.tensor(p.data.copy(), requires_grad=True) for p in params]


def test_adam_arena_matches_per_array_oracle():
    """Three steps with parameter 2 never given a gradient and parameter 0
    skipped once, over a parameter that spans two update chunks: parameters
    and moments equal the per-array update's, and the skipped moments stay."""
    rng = np.random.default_rng(16)
    shapes = [(3, 4), (Adam.CHUNK + 7,), (5,), (2, 3)]
    params = [T.tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
              for s in shapes]
    ref = _oracle_copies(params)
    ref_m = [np.zeros_like(p.data) for p in ref]
    ref_v = [np.zeros_like(p.data) for p in ref]
    opt = Adam(params, lr=1e-2)
    for t in (1, 2, 3):
        opt.zero_grad()
        for p in ref:
            p.grad = None
        for i, (p, q) in enumerate(zip(params, ref)):
            if i == 2 or (i == 0 and t == 2):
                continue
            g = rng.standard_normal(p.shape).astype(np.float32)
            p._accumulate(g)
            q._accumulate(g)
        opt.step()
        adam_per_array_oracle(ref, ref_m, ref_v, t, lr=1e-2)
        for got, want in zip([p.data for p in params] + opt.m + opt.v,
                             [p.data for p in ref] + ref_m + ref_v):
            assert np.array_equal(got, want)
    assert not opt.m[2].any() and not opt.v[2].any()


@pytest.mark.parametrize("sizes, chunks", [
    ([(3, 4), (Adam.CHUNK + 7,), (5,), (2, 3)], 3),
    ([(Adam.CHUNK,), (Adam.CHUNK + 1,), (5,), (2, 3)], 4),
    ([(3, 4), (5,), (5,), (2,)], 2),
    ([(3, 4), (5,)], 1)], ids=["odd", "even", "two", "single"])
def test_adam_step_side_by_side_matches_per_array_oracle(sizes, chunks):
    """Three steps with the arena's slices split between two threads:
    parameter 2 (where there is one) never has a gradient, and parameter 0's
    is assigned from outside the arena at step 2. Parameters and moments
    equal the per-array update's."""
    rng = np.random.default_rng(19)
    params = [T.tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
              for s in sizes]
    ref = _oracle_copies(params)
    ref_m = [np.zeros_like(p.data) for p in ref]
    ref_v = [np.zeros_like(p.data) for p in ref]
    opt = Adam(params, lr=1e-2)
    for t in (1, 2, 3):
        opt.zero_grad()
        for p in ref:
            p.grad = None
        for i, (p, q) in enumerate(zip(params, ref)):
            if i == 2:
                continue
            g = rng.standard_normal(p.shape).astype(np.float32)
            if i == 0 and t == 2:
                p.grad = g.copy()
            else:
                p._accumulate(g)
            q._accumulate(g)
        assert sum(map(len, opt._halves(opt._runs()))) == chunks
        run_within(10, lambda: opt.step(side_by_side))
        adam_per_array_oracle(ref, ref_m, ref_v, t, lr=1e-2)
        for got, want in zip([p.data for p in params] + opt.m + opt.v,
                             [p.data for p in ref] + ref_m + ref_v):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("bad, first", [((4,), 4), ((3, 4), 3), ((1, 4), 1), ((2,), 2)],
                         ids=["worker_half", "worker_half_twice", "both_halves", "straddling"])
def test_nonfinite_grad_side_by_side_names_the_first_bad_parameter(bad, first):
    """Four arena slices: side by side, the calling thread checks [0, 2 CHUNK),
    the worker the rest, which holds parameters 3 and 4 and the end of
    parameter 2. In turn or side by side, ``Adam.step`` returns the first bad
    index and changes no parameter, moment or ``t``; once every gradient is
    finite it updates them all and returns None."""
    sizes = [(Adam.CHUNK,), (5,), (Adam.CHUNK,), (Adam.CHUNK,), (3,)]
    for runner in (in_turn, side_by_side):
        params = [T.tensor(np.zeros(s, np.float32), requires_grad=True) for s in sizes]
        opt = Adam(params)
        for p in params:
            p._accumulate(np.ones(p.shape, np.float32))
        for i in bad:
            params[i].grad[-1] = np.nan if i % 2 else np.inf
        arena = (opt._data, opt._m, opt._v)
        before = [a.copy() for a in arena]
        assert run_within(10, lambda: opt.step(runner)) == first
        assert opt.t == 0 and all(np.array_equal(a, b) for a, b in zip(arena, before))
        for i in bad:
            params[i].grad[-1] = 1
        assert run_within(10, lambda: opt.step(runner)) is None
        assert opt.t == 1 and (opt._data < 0).all() and opt._m.all() and opt._v.all()


def test_bare_adam_step_applies_no_nonfinite_gradient(shapes):
    """The benchmark's traced step calls ``opt.step()`` with no ``train_step``
    around it. On a NaN gradient of a trained model it still returns that
    parameter's index and changes no parameter, moment, buffer or count."""
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes[:2], 2)
    state.opt.zero_grad()
    state.model.loss(state.model(*shapes[0][:2]), shapes[0][2]).backward()
    name = "apg.pc_blocks.0.linear2.weight"
    state.named[name].grad[0, 0] = np.nan
    before = _snapshot(state)
    assert state.opt.step() == list(state.named).index(name)
    _assert_unchanged(state, before)


def test_adam_arena_matches_per_array_oracle_on_ablation_split(shapes):
    """The 0/4 split (no image-fed blocks) leaves the interactor's image
    path without gradients; three train steps still equal the per-array
    update on a second model."""
    cfg = mini_config(n_img_blocks=0)
    state = TrainState(DuInNet(cfg, seed=0), lr=1e-3)
    model = DuInNet(cfg, seed=0)
    params = model.parameters()
    m, v = [np.zeros_like(p.data) for p in params], [np.zeros_like(p.data) for p in params]
    for t, (partial, image, gt) in enumerate(shapes[:3], start=1):
        state.train_step(partial, image, gt)
        model.train()
        model.zero_grad()
        model.loss(model(partial, image), gt).backward()
        adam_per_array_oracle(params, m, v, t, lr=1e-3)
    assert sum(p.grad is None for p in params) > 0
    for got, want in zip([p.data for p in state.params] + state.opt.m + state.opt.v,
                         [p.data for p in params] + m + v):
        assert np.array_equal(got, want)


def test_to_dtype_after_adoption_stops_the_optimizer(shapes):
    """A parameter converted by ``to_dtype`` leaves the arena: its gradients
    are float64 again, and the optimizer raises instead of updating storage
    the model no longer reads, with the model's state unchanged."""
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes[:1], 1)
    state.model.to_dtype(np.float64)
    before = _snapshot(state)
    with pytest.raises(RuntimeError, match="no longer lives in this optimizer's arena"):
        state.train_step(*shapes[0])
    _assert_unchanged(state, before)
    state.model.train()
    state.model.loss(state.model(*shapes[0][:2]), shapes[0][2]).backward()
    assert all(p.grad.dtype == np.float64 and p._grad_buf is None
               for p in state.params if p.grad is not None)


def test_to_dtype_before_adoption_trains_in_float64(shapes):
    model = DuInNet(mini_config(), seed=0).to_dtype(np.float64)
    state = TrainState(model, lr=1e-3)
    before = [p.data.copy() for p in state.params]
    train_loop(state, shapes[:2], 2)
    assert all(p.data.dtype == np.float64 for p in state.params)
    assert any(not np.array_equal(a, p.data) for a, p in zip(before, state.params))


def test_second_adam_takes_the_parameters_over():
    """A second optimizer over the same parameters owns them from then on;
    the first raises on ``step`` and changes nothing."""
    params = [T.tensor(np.ones((2, 3), np.float32), requires_grad=True),
              T.tensor(np.ones(4, np.float32), requires_grad=True)]
    first = Adam(params, lr=0.1)
    second = Adam(params, lr=0.1)
    for p in params:
        p._accumulate(np.ones(p.shape, np.float32))
    second.step()
    moved = [p.data.copy() for p in params]
    assert all((a < 1).all() for a in moved)
    with pytest.raises(RuntimeError, match="no longer lives in this optimizer's arena"):
        first.step()
    assert first.t == 0 and all(np.array_equal(a, p.data) for a, p in zip(moved, params))


@pytest.mark.parametrize("mode", ["standard", "denoising"])
def test_profiler_names_every_recorded_op(shapes, monkeypatch, mode):
    """Every op a seed-0 mini train step puts on the tape has a per-op time in
    the benchmark's tracer, so no op's time goes unattributed."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tapes, original = [], T.Tensor.backward

    def backward(self):
        tapes.append(original(self))
        return tapes[-1]

    monkeypatch.setattr(T.Tensor, "backward", backward)
    TrainState(DuInNet(mini_config(), seed=0)).train_step(*shapes[0], mode=mode)
    ops = {node._op for node in tapes[0].entries} - {"leaf"}
    assert "matmul" in ops and sorted(ops - set(tracing.TENSOR_OPS)) == []


# -- the point and image branches of each stage, in turn or side by side --------


def _mini_run_digests(shapes, monkeypatch, runner, mode) -> list[str]:
    """SHA-256 of the parameters, Adam moments, BatchNorm buffers and eval
    ``p_gen2`` after 6 mini train steps in ``mode`` with ``runner`` forced."""
    monkeypatch.setattr(network, "branch_runner", lambda cfg: runner)
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes, 6, mode=mode)
    state.model.eval()
    with T.no_grad():
        p_gen2 = state.model(*shapes[6][:2])["p_gen2"].data
    groups = ([p.data for p in state.params], state.opt.m, state.opt.v,
              _buffers(state.model), [p_gen2])
    return [hashlib.sha256(b"".join(a.tobytes() for a in g)).hexdigest() for g in groups]


@pytest.mark.parametrize("mode", ["standard", "denoising"])
def test_side_by_side_branches_keep_every_bit(shapes, monkeypatch, mode):
    assert (_mini_run_digests(shapes, monkeypatch, side_by_side, mode)
            == _mini_run_digests(shapes, monkeypatch, in_turn, mode))


def test_mini_runs_in_turn_and_starts_no_thread(shapes, monkeypatch):
    pool = T._new_pool()
    monkeypatch.setattr(T, "_POOL", pool)
    model = DuInNet(mini_config(), seed=0)
    before = threading.active_count()
    model(*shapes[0][:2])
    assert threading.active_count() == before and not pool._threads
    two_cores = len(os.sched_getaffinity(0)) >= 2
    monkeypatch.setattr(network, "_blas_threads", lambda: 1)
    assert network.branch_runner(make_config("paper")) is (side_by_side if two_cores else in_turn)
    assert network.branch_runner(mini_config(C=192)) is network.branch_runner(make_config("paper"))
    assert network.branch_runner(mini_config(C=128)) is in_turn


@pytest.mark.parametrize("threads", [2, None], ids=["two", "unknown"])
def test_paper_runs_in_turn_unless_blas_runs_one_thread(monkeypatch, threads):
    """Two branch threads over a two-thread BLAS put four busy threads on two
    cores, and lost; a BLAS whose thread count cannot be read counts as that."""
    monkeypatch.setattr(network, "_blas_threads", lambda: threads)
    assert network.branch_runner(make_config("paper")) is in_turn


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_thread_probe_reads_numpys_openblas(threads):
    code = "from duinnet.model import network; print(network._blas_threads())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == str(threads)


def test_failed_point_branch_is_raised_after_the_image_branch_ends(shapes, monkeypatch):
    """The point branch raises while the image branch runs. ``train_step``
    re-raises only once the image branch has finished, so the BatchNorm
    buffers it restores stay restored. Events order the two threads: a runner
    that did not wait would return while the image branch is still held."""
    monkeypatch.setattr(network, "branch_runner", lambda cfg: side_by_side)
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes[:2], 2)
    started, released, done = threading.Event(), threading.Event(), threading.Event()
    encode_image = ImageEncoder.__call__

    def held_image_encoder(self, image):
        started.set()
        released.wait(timeout=0.5)
        out = encode_image(self, image)  # moves the encoder's BatchNorm buffers
        done.set()
        return out

    def failing_point_encoder(self, points):
        if not started.wait(timeout=10):
            raise TimeoutError("image branch never started")
        raise RuntimeError("point branch failed")

    monkeypatch.setattr(ImageEncoder, "__call__", held_image_encoder)
    monkeypatch.setattr(PointEncoder, "__call__", failing_point_encoder)
    before = _snapshot(state)
    with pytest.raises(RuntimeError, match="point branch failed"):
        state.train_step(*shapes[0])
    image_branch_ended_first = done.is_set()
    released.set()
    assert done.wait(timeout=10)
    assert image_branch_ended_first
    _assert_unchanged(state, before)


def _with_backward_hook(x, hook):
    """``x`` again, as a node whose backward calls ``hook()`` before it passes
    the gradient on."""
    def bw(g):
        hook()
        x._accumulate(g)

    return T._make(x.data, "reshape", (x,), bw)


@pytest.mark.parametrize("caller_raises", [True, False], ids=["both_raise", "worker_raises"])
def test_failed_backward_is_raised_after_the_worker_stops(shapes, monkeypatch, caller_raises):
    """A backward closure of the image branch raises on the worker once
    released (or after 0.5 s); one of the point branch may raise on the
    calling thread meanwhile. ``train_step`` re-raises only once the worker
    has stopped, the calling thread's error wins, no state changes, and the
    worker still runs the next call."""
    monkeypatch.setattr(network, "branch_runner", lambda cfg: side_by_side)
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    train_loop(state, shapes[:2], 2)
    started, released, done = threading.Event(), threading.Event(), threading.Event()
    encode_image, encode_points = ImageEncoder.__call__, PointEncoder.__call__

    def held_then_failing():
        started.set()
        released.wait(timeout=0.5)
        done.set()
        raise RuntimeError("image branch backward failed")

    def failing():
        if not started.wait(timeout=10):
            raise TimeoutError("the image branch's backward never started")
        if caller_raises:
            raise RuntimeError("point branch backward failed")

    monkeypatch.setattr(ImageEncoder, "__call__", lambda self, image: _with_backward_hook(
        encode_image(self, image), held_then_failing))
    monkeypatch.setattr(PointEncoder, "__call__", lambda self, points: _with_backward_hook(
        encode_points(self, points), failing))
    before = _snapshot(state)
    with pytest.raises(RuntimeError, match=f"{'point' if caller_raises else 'image'} branch"):
        run_within(60, lambda: state.train_step(*shapes[0]))
    worker_stopped_first = done.is_set()
    released.set()
    assert worker_stopped_first
    _assert_unchanged(state, before)
    assert run_within(10, lambda: side_by_side(lambda: 1, lambda: 2)) == (1, 2)


@pytest.mark.parametrize("runner", [in_turn, side_by_side], ids=["in_turn", "side_by_side"])
def test_train_step_leaves_the_thread_count_unchanged(shapes, monkeypatch, runner):
    """Forward and backward reuse the one worker, so a train step leaves the
    thread count as it found it, in turn or side by side."""
    monkeypatch.setattr(network, "branch_runner", lambda cfg: runner)
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    run_within(60, lambda: state.train_step(*shapes[0]))
    before = threading.active_count()
    run_within(60, lambda: state.train_step(*shapes[1]))
    assert threading.active_count() == before


def test_paper_runner_train_step_on_mini_leaves_the_thread_count_unchanged(shapes,
                                                                           monkeypatch):
    """The runner ``paper`` gets with one BLAS thread (side by side on two
    cores) also runs Adam's gradient check and update: a mini train step with
    it leaves the thread count as it found it."""
    monkeypatch.setattr(network, "_blas_threads", lambda: 1)
    runner = network.branch_runner(make_config("paper"))
    monkeypatch.setattr(network, "branch_runner", lambda cfg: runner)
    state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
    run_within(60, lambda: state.train_step(*shapes[0]))
    before = threading.active_count()
    run_within(60, lambda: state.train_step(*shapes[1], mode="denoising"))
    assert threading.active_count() == before


def test_wrong_size_image_raises_the_same_error_side_by_side(shapes, monkeypatch):
    partial, image, gt = shapes[0]
    messages = []
    for runner in (in_turn, side_by_side):
        monkeypatch.setattr(network, "branch_runner", lambda cfg: runner)
        state = TrainState(DuInNet(mini_config(), seed=0), lr=1e-3)
        before = _snapshot(state)
        with pytest.raises(ValueError, match="expected 32x32x3 image") as exc:
            state.train_step(partial, image[:16, :16], gt)
        _assert_unchanged(state, before)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_side_by_side_from_many_threads_makes_one_worker(monkeypatch):
    """Callers on four threads, with a short switch interval, each get their
    own pair of results, and every second branch runs on the one worker
    thread of a fresh executor, started by whichever caller came first."""
    pool = T._new_pool()
    monkeypatch.setattr(T, "_POOL", pool)
    results, errors, workers = {}, [], set()

    def second(k, i):
        workers.add(threading.get_ident())
        return k, -i

    def caller(k):
        try:
            results[k] = [side_by_side(lambda i=i: (k, i), lambda i=i: second(k, i))
                          for i in range(50)]
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert not errors and not any(t.is_alive() for t in threads)
    assert results == {k: [((k, i), (k, -i)) for i in range(50)] for k in range(4)}
    assert len(pool._threads) == 1 and workers == {t.ident for t in pool._threads}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")  # Python 3.12+: threads alive
def test_forked_child_runs_side_by_side_on_its_own_worker():
    """A child forked after the worker has run has no copy of its thread. It
    gets a fresh executor at fork, so ``side_by_side`` returns there too;
    without one it waits forever, and the alarm kills it."""
    assert run_within(10, lambda: side_by_side(lambda: 1, lambda: 2)) == (1, 2)
    pid = os.fork()
    if pid == 0:  # the child leaves by os._exit, never back into pytest
        code = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(10)
            code = 0 if side_by_side(lambda: 1, lambda: 2) == (1, 2) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child still running after 30 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status[1]) == 0
