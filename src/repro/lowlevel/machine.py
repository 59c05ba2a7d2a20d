"""Machine state of the LVM: frames, registers, word memory."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import GuestFault
from repro.lowlevel.cow import CowMap
from repro.lowlevel.program import Function, Program


class Status:
    """Lifecycle of one execution state."""

    RUNNING = "running"
    HALTED = "halted"              # clean end_symbolic / main returned
    FAULT = "fault"                # guest fault (abort, bad memory, ÷0)
    ASSUME_FAILED = "assume"       # assume() contradicted the concrete path
    BUDGET_EXCEEDED = "budget"     # per-path instruction budget (hang proxy)
    PENDING = "pending"            # forked alternate, not yet activated
    INFEASIBLE = "infeasible"      # solver proved the alternate impossible
    SOLVER_TIMEOUT = "solver-timeout"
    DEADLINE = "deadline"          # run wall-clock budget expired mid-path

    TERMINAL = {HALTED, FAULT, ASSUME_FAILED, BUDGET_EXCEEDED, INFEASIBLE,
                SOLVER_TIMEOUT, DEADLINE}


class Frame:
    """One activation record: function, program counter, registers."""

    __slots__ = ("func", "pc", "regs", "ret_dst")

    def __init__(self, func: Function, ret_dst: Optional[int] = None):
        self.func = func
        self.pc = 0
        self.regs: List = [0] * func.n_regs
        self.ret_dst = ret_dst

    def copy(self) -> "Frame":
        clone = Frame.__new__(Frame)
        clone.func = self.func
        clone.pc = self.pc
        clone.regs = list(self.regs)
        clone.ret_dst = self.ret_dst
        return clone


class MachineState:
    """Mutable machine state; forked via :meth:`fork`."""

    __slots__ = ("program", "frames", "memory", "status", "halt_code", "output")

    MAX_CALL_DEPTH = 256

    def __init__(self, program: Program, memory: Optional[CowMap] = None):
        if not program.finalized:
            raise GuestFault("program must be finalized before execution")
        self.program = program
        self.frames: List[Frame] = []
        # Static data rides along as the frozen bottom layer *by
        # reference* (writes only ever land in upper layers): boot costs
        # no copy, and snapshot deltas can diff against it in O(writes).
        self.memory = (
            memory
            if memory is not None
            else CowMap.from_base_and_delta(program.static_data, {})
        )
        self.status = Status.RUNNING
        self.halt_code: Optional[int] = None
        self.output: List[int] = []

    @classmethod
    def boot(cls, program: Program) -> "MachineState":
        state = cls(program)
        state.frames.append(Frame(program.get_function(program.entry)))
        return state

    def fork(self) -> "MachineState":
        clone = MachineState.__new__(MachineState)
        clone.program = self.program
        clone.frames = [f.copy() for f in self.frames]
        clone.memory = self.memory.fork()
        clone.status = self.status
        clone.halt_code = self.halt_code
        clone.output = list(self.output)
        return clone

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def current_ll_pc(self) -> int:
        """Globally unique id of the next instruction to execute."""
        frame = self.top
        return frame.func.instr_id(frame.pc)

    def push_frame(self, func: Function, args: List, ret_dst: Optional[int]) -> None:
        if len(self.frames) >= self.MAX_CALL_DEPTH:
            raise GuestFault("guest call stack overflow")
        frame = Frame(func, ret_dst=ret_dst)
        if len(args) != func.n_params:
            raise GuestFault(
                f"call to {func.name!r} with {len(args)} args, "
                f"expected {func.n_params}"
            )
        frame.regs[: len(args)] = args
        self.frames.append(frame)

    def pop_frame(self, return_value) -> None:
        finished = self.frames.pop()
        if not self.frames:
            # Returning from the entry function ends the execution cleanly.
            self.status = Status.HALTED
            self.halt_code = 0
            return
        if finished.ret_dst is not None:
            self.top.regs[finished.ret_dst] = return_value

    def mem_read(self, addr: int):
        return self.memory.get(addr, 0)

    def mem_write(self, addr: int, value) -> None:
        self.memory[addr] = value

    def read_words(self, addr: int, count: int) -> List:
        return [self.mem_read(addr + i) for i in range(count)]

    def write_words(self, addr: int, values) -> None:
        for i, v in enumerate(values):
            self.mem_write(addr + i, v)
