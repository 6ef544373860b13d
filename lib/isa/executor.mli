(** Functional execution of a program: interprets the instruction semantics,
    updating registers and {!Memory}, and streams timing events per executed
    instruction to a {!sink} (normally the platform timing model).

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
  fp_long_ops : int;  (** FDIV + FSQRT count *)
  branches : int;
  taken_branches : int;
}

(** Per-work-class timing hooks.  [on_fetch] is called once per executed
    instruction with its fetch address, before at most one work hook; work
    classes with zero platform latency ([Int_alu], [No_op]) get no further
    call.  Every control instruction (conditional branch, jump, call,
    return) calls [on_branch] with whether it was taken. *)
type sink = {
  on_fetch : int -> unit;
  on_int_mul : unit -> unit;
  on_read : int -> unit;  (** data read, byte address *)
  on_write : int -> unit;  (** data write, byte address *)
  on_fp_short : Instr.fpu_op -> unit;
  on_fp_long : Instr.fpu_op -> float -> float -> unit;  (** op, operands *)
  on_branch : bool -> unit;  (** control instruction: taken? *)
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

    (** [run_supervised t ~sink ~post] additionally calls [post ()] after
        every retired instruction — the hook point for watchdog budgets and
        SEU injection. *)
    val run_supervised : t -> sink:sink -> post:(unit -> unit) -> stats

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
