"""Module/Parameter abstractions, mirroring the familiar torch.nn API.

A :class:`Module` owns :class:`Parameter` tensors and child modules, and
exposes recursive parameter collection, train/eval mode switching, and
state-dict save/load for ensembling and snapshotting.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as trainable state of a :class:`Module`."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically for optimization,
    gradient clearing, and state serialization.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Drop every parameter's gradient: the next backward allocates
        (or arena-recycles) fresh buffers instead of zero-filling these."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable values."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Put this module (recursively) into training mode."""
        self.training = True
        for child in self._modules.values():
            child.train()
        return self

    def eval(self) -> "Module":
        """Put this module (recursively) into evaluation mode."""
        self.training = False
        for child in self._modules.values():
            child.eval()
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(f"parameter {name!r}: shape {value.shape} != expected {param.shape}")
            param.data[...] = value

    # ------------------------------------------------------------------
    # Calling
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError("Module subclasses must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}(params={self.num_parameters()}, children=[{children}])"


class ModuleList(Module):
    """An indexable container that registers each element as a child."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
