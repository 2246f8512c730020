"""Every path's solver witness, run concretely, lands on that very path.

The symbolic engine keeps the model of each path's last feasibility check
as the path's witness.  Here each witness of every NF's bench-geometry
contract drives the concrete interpreter: the packet bytes and scalars
come from the model, and a scripted handler answers each extern call with
the model's value for that call.  The execution must satisfy the path's
condition and repeat its stateless counts and extern-call sequence.
"""

import pytest

from repro.nf import NF_MATRIX
from repro.nf.replay import replay_env
from repro.nfil import Interpreter, Memory
from repro.nfil.interpreter import ExternResult


class _Scripted:
    """Answers call ``i`` of a value-returning extern with ``model["{name}#{i}"]``
    (0 when the model leaves it free), at no cost."""

    def __init__(self, module, model):
        self.module = module
        self.model = model
        self.calls = 0

    def handle(self, name, args, memory):
        index = self.calls
        self.calls += 1
        if not self.module.externs[name].returns_value:
            return ExternResult(None)
        return ExternResult(self.model.get(f"{name}#{index}", 0))


@pytest.mark.parametrize("spec", [spec for spec, _ in NF_MATRIX], ids=lambda spec: spec.name)
def test_every_path_witness_replays_onto_its_path(spec, gate_targets):
    contract, _ = gate_targets[spec.name]
    module = spec.build_module()
    names = module.get_function(spec.function).param_names()[1:]
    for entry in contract:
        for path in entry.paths:
            where = f"{spec.name} path {path.pid} ({entry.input_class.name})"
            model = path.model
            assert model is not None, f"{where} has no witness"
            packet = bytes(model.get(f"pkt[{i}]", 0) for i in range(spec.sym_bytes))
            scalars = {name: model.get(name, 0) for name in names}
            _, trace = Interpreter(module, handler=_Scripted(module, model)).run(
                spec.function,
                [spec.pkt_base, *scalars.values()],
                memory=Memory(spec.pkt_base, packet),
            )
            assert path.covers(replay_env(packet, spec.sym_bytes, trace, **scalars)), where
            counts = (trace.instructions, trace.memory_accesses)
            assert counts == (path.instructions, path.memory_accesses), where
            calls = [call.name for call in trace.extern_calls]
            assert calls == [call.name for call in path.calls], where
