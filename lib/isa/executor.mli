(** Functional execution of a program: interprets the instruction semantics,
    updating registers and {!Memory}, and hands timing work to a {!sink}
    (normally the platform timing model): state-dependent events one by
    one, fixed-latency work and same-line fetches as counts.

    Execution is fully deterministic given (program, layout, memory
    contents); all timing is the sink's business.

    A program is decoded once ({!Decoded.decode}: label targets, data bases
    and fetch addresses resolved to flat arrays) and linked against a live
    memory image once per {!Decoded.Runner}.  A runner executes to
    completion ({!Decoded.Runner.run}) or one instruction at a time
    ({!Decoded.Runner.step}), which is what a preemptive scheduler needs to
    interleave several tasks on one core. *)

exception Stack_overflow_ of string

exception Runaway of string
(** raised when [max_instructions] is exceeded — almost always an
    unintended infinite loop in a generated program *)

type stats = {
  retired : int;
  loads : int;
  stores : int;
  fp_short_ops : int;  (** FADD/FSUB/FMUL/FABS/FMOV count *)
  fp_long_ops : int;  (** FDIV + FSQRT count *)
  int_muls : int;
  branches : int;
  taken_branches : int;
}

(** The fetch-line state of the core a {!sink} models.  It belongs to the
    core, not to a runner: every runner stepping through the same sink
    (the tasks of an RTOS on one core) shares it. *)
type fetch_line = {
  line_shift : int;  (** a fetch at [addr] is on line [addr lsr line_shift] *)
  mutable line : int;
      (** line of the core's previous fetch, or [-1]: set by the sink's
          [on_fetch], never by the runner *)
  mutable repeats : int;
      (** fetches on [line] the runner counted instead of reporting; the
          sink applies and zeroes them *)
}

(** Timing hooks.  Only events whose latency depends on platform state
    reach a hook:

    - [on_fetch] for a fetch whose line differs from [fetch_line.line]; a
      fetch on that line only increments [fetch_line.repeats].  A sink
      that leaves [line] at [-1] sees every fetch.
    - [on_read]/[on_write] after the instruction's fetch, for its data
      access, and [on_fp_long] for FDIV/FSQRT with their operands.
    - [on_retire] with the work retired since its last call, whose
      latency is a constant: instructions (one base cycle each), short FP
      ops, integer multiplies, taken control instructions.  The runner
      calls it at the end of {!Decoded.Runner.run} (also when it raises),
      after every {!Decoded.Runner.step}, and after every instruction of
      {!Decoded.Runner.run_supervised}.  An instruction that raises is
      neither retired nor charged. *)
type sink = {
  fetch_line : fetch_line;
  on_fetch : int -> unit;
  on_read : int -> unit;  (** data read, byte address *)
  on_write : int -> unit;  (** data write, byte address *)
  on_fp_long : Instr.fpu_op -> float -> float -> unit;  (** op, operands *)
  on_retire : instructions:int -> fp_short:int -> int_mul:int -> taken:int -> unit;
}

(** A sink that ignores every event: functional execution only. *)
val null_sink : sink

module Decoded : sig
  type t
  (** A program compiled for execution: pure function of (program, layout),
      memory-independent — shareable across domains, memory images and
      runs, and cacheable per scenario config. *)

  val decode : program:Program.t -> layout:Layout.t -> t
  val name : t -> string

  (** A decoded program linked against one live memory image.  Reusable
      across runs via {!Runner.reset} (the caller zeroes and reloads the
      memory between runs). *)
  module Runner : sig
    type decoded := t
    type t

    val create : ?max_instructions:int -> decoded:decoded -> memory:Memory.t -> unit -> t

    (** [reset ?entry ?init_regs t] restores registers, call stack, pc and
        counters to the initial state; the memory image is the caller's to
        reset.  [entry] (default: the program's entry label) selects where
        execution starts; [init_regs] presets integer registers (e.g. a
        task's activation index) before the first instruction.  Raises
        [Invalid_argument] on an out-of-range register. *)
    val reset : ?entry:string -> ?init_regs:(int * int) list -> t -> unit

    (** [step t ~sink] executes one instruction; a no-op once {!finished}.
        Raises {!Runaway} when called on a running program that already
        retired [max_instructions] instructions — the same instruction at
        which {!run} raises. *)
    val step : t -> sink:sink -> unit

    (** [true] once the program executed [Halt], or [Ret] with an empty
        call stack. *)
    val finished : t -> bool

    (** [run t ~sink] executes from the current pc to completion.  Raises
        {!Runaway} past [max_instructions] (default [10_000_000]),
        {!Stack_overflow_} past 256 nested calls, and [Invalid_argument] on
        an out-of-bounds data access. *)
    val run : t -> sink:sink -> stats

    (** [run_supervised t ~sink] is {!run}, but charges every instruction
        through [on_retire] on its own, right after it retires: the hook
        point for watchdog budgets and SEU injection. *)
    val run_supervised : t -> sink:sink -> stats

    val stats : t -> stats

    (** {2 SEU injection hooks}

        [corrupt_int_register t ~reg ~bit] flips one of the low 32 bits of
        an integer register (the model's registers are architecturally
        32-bit); [corrupt_float_register] flips one bit of the IEEE-754
        image of a float register (which can produce inf/NaN, as on real
        hardware).  Driven by the platform fault injector between
        instructions; a corrupted register may change the execution path,
        trap (out-of-bounds access), diverge ({!Runaway}), or silently
        corrupt the program's output. *)

    val corrupt_int_register : t -> reg:int -> bit:int -> unit
    val corrupt_float_register : t -> reg:int -> bit:int -> unit
  end
end

(** [run ?max_instructions ~program ~layout ~memory ~sink ()] decodes the
    program, links it against [memory] and runs it from the entry label to
    completion: a one-shot {!Decoded.Runner.run}. *)
val run :
  ?max_instructions:int ->
  program:Program.t ->
  layout:Layout.t ->
  memory:Memory.t ->
  sink:sink ->
  unit ->
  stats

(** [path_signature ~program ~layout ~memory ()] executes without timing
    and returns a hash of the taken/not-taken sequence of every control
    instruction: two runs with the same signature followed the same
    execution path.  Used by the per-path analysis of the MBPTA
    protocol. *)
val path_signature :
  ?max_instructions:int ->
  program:Program.t ->
  layout:Layout.t ->
  memory:Memory.t ->
  unit ->
  int
