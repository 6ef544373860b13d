exception Stack_overflow_ of string
exception Runaway of string

type stats = {
  retired : int;
  loads : int;
  stores : int;
  fp_short_ops : int;
  fp_long_ops : int;
  int_muls : int;
  branches : int;
  taken_branches : int;
}

let max_call_depth = 256

(* Pre-resolved addressing: the live backing array plus the symbol's byte
   base, so the hot loop does no hash lookups.  index_reg = -1 encodes "no
   index register". *)
type raddr = { values : float array; byte_base : int; index_reg : int; offset : int }

type rop =
  | RLi of int * int
  | RAdd of int * int * int
  | RAddi of int * int * int
  | RSub of int * int * int
  | RMul of int * int * int
  | RFli of int * float
  | RFld of int * raddr
  | RFst of int * raddr
  | RFadd of int * int * int
  | RFsub of int * int * int
  | RFmul of int * int * int
  | RFdiv of int * int * int
  | RFsqrt of int * int
  | RFabs of int * int
  | RFmov of int * int
  | RFcvt of int * int
  | RIcvt of int * int
  | RBlt of int * int * int
  | RBge of int * int * int
  | RBeq of int * int * int
  | RBne of int * int * int
  | RFblt of int * int * int
  | RFbge of int * int * int
  | RJmp of int
  | RCall of int
  | RRet
  | RNop
  | RHalt

let resolve ~program ~layout ~memory =
  let target l = Program.label_index program l in
  let addr (a : Instr.addressing) =
    {
      values = Memory.raw memory a.Instr.base;
      byte_base = Layout.data_address layout ~symbol:a.Instr.base ~element:0;
      index_reg = (match a.Instr.index_reg with Some r -> r | None -> -1);
      offset = a.Instr.offset;
    }
  in
  Array.map
    (fun instr ->
      match instr with
      | Instr.Li (rd, v) -> RLi (rd, v)
      | Instr.Add (a, b, c) -> RAdd (a, b, c)
      | Instr.Addi (a, b, v) -> RAddi (a, b, v)
      | Instr.Sub (a, b, c) -> RSub (a, b, c)
      | Instr.Mul (a, b, c) -> RMul (a, b, c)
      | Instr.Fli (fd, v) -> RFli (fd, v)
      | Instr.Fld (fd, a) -> RFld (fd, addr a)
      | Instr.Fst (fs, a) -> RFst (fs, addr a)
      | Instr.Fadd (a, b, c) -> RFadd (a, b, c)
      | Instr.Fsub (a, b, c) -> RFsub (a, b, c)
      | Instr.Fmul (a, b, c) -> RFmul (a, b, c)
      | Instr.Fdiv (a, b, c) -> RFdiv (a, b, c)
      | Instr.Fsqrt (a, b) -> RFsqrt (a, b)
      | Instr.Fabs (a, b) -> RFabs (a, b)
      | Instr.Fmov (a, b) -> RFmov (a, b)
      | Instr.Fcvt (a, b) -> RFcvt (a, b)
      | Instr.Icvt (a, b) -> RIcvt (a, b)
      | Instr.Blt (a, b, l) -> RBlt (a, b, target l)
      | Instr.Bge (a, b, l) -> RBge (a, b, target l)
      | Instr.Beq (a, b, l) -> RBeq (a, b, target l)
      | Instr.Bne (a, b, l) -> RBne (a, b, target l)
      | Instr.Fblt (a, b, l) -> RFblt (a, b, target l)
      | Instr.Fbge (a, b, l) -> RFbge (a, b, target l)
      | Instr.Jmp l -> RJmp (target l)
      | Instr.Call l -> RCall (target l)
      | Instr.Ret -> RRet
      | Instr.Nop -> RNop
      | Instr.Halt -> RHalt)
    (Program.code program)

let element_index (a : raddr) regs =
  let idx = if a.index_reg >= 0 then regs.(a.index_reg) + a.offset else a.offset in
  if idx < 0 || idx >= Array.length a.values then
    invalid_arg
      (Printf.sprintf "Executor: data access out of bounds (index %d, size %d)" idx
         (Array.length a.values));
  idx

(* Timing consumer for the runner.  Only events whose latency depends on
   platform state reach a hook: a fetch that leaves the line of the core's
   previous fetch ([on_fetch]), data reads and writes, and long FP ops.  A
   fetch on the previous line only bumps [fetch_line.repeats], and the
   fixed-latency work (the base cycle of every instruction, short FP,
   integer multiply, taken-branch penalty) is charged in bulk through
   [on_retire] from the runner's counters.  [fetch_line] belongs to the
   core, not the runner: runners taking turns on one core share it. *)
type fetch_line = { line_shift : int; mutable line : int; mutable repeats : int }

type sink = {
  fetch_line : fetch_line;
  on_fetch : int -> unit;
  on_read : int -> unit;
  on_write : int -> unit;
  on_fp_long : Instr.fpu_op -> float -> float -> unit;
  on_retire : instructions:int -> fp_short:int -> int_mul:int -> taken:int -> unit;
}

(* [line] stays -1 because [on_fetch] never sets it, so this shared record
   is never written. *)
let null_sink =
  {
    fetch_line = { line_shift = 0; line = -1; repeats = 0 };
    on_fetch = (fun _ -> ());
    on_read = (fun _ -> ());
    on_write = (fun _ -> ());
    on_fp_long = (fun _ _ _ -> ());
    on_retire = (fun ~instructions:_ ~fp_short:_ ~int_mul:_ ~taken:_ -> ());
  }

module Decoded = struct
  (* The memory-independent half of the decode: everything [resolve] can
     compute from (program, layout) alone — label targets, data byte bases,
     per-pc fetch addresses — so one decode is shareable across every
     memory image, domain and run of a scenario.  Binding the live backing
     arrays (the only memory-dependent part) happens once per {!Runner}. *)
  type t = {
    program : Program.t;
    layout : Layout.t;
    fetch_addrs : int array;
    entry_pc : int;
    name : string;
  }

  let decode ~program ~layout =
    let n = Array.length (Program.code program) in
    {
      program;
      layout;
      fetch_addrs = Array.init n (fun pc -> Layout.code_address layout pc);
      entry_pc = Program.label_index program (Program.entry program);
      name = Program.name program;
    }

  let name t = t.name

  type decoded = t

  module Runner = struct
    type t = {
      code : rop array;
      fetch_addrs : int array;
      program : Program.t;
      entry_pc : int;
      name : string;
      max_instructions : int;
      regs : int array;
      fregs : float array;
      call_stack : int array;
      mutable sp : int;
      mutable pc : int;
      mutable running : bool;
      mutable retired : int;
      mutable loads : int;
      mutable stores : int;
      mutable fp_short : int;
      mutable fp_long : int;
      mutable int_mul : int;
      mutable branches : int;
      mutable taken : int;
      (* the counters' values at the last [on_retire] charge *)
      mutable charged_retired : int;
      mutable charged_fp_short : int;
      mutable charged_int_mul : int;
      mutable charged_taken : int;
    }

    let create ?(max_instructions = 10_000_000) ~(decoded : decoded) ~memory () =
      {
        code = resolve ~program:decoded.program ~layout:decoded.layout ~memory;
        fetch_addrs = decoded.fetch_addrs;
        program = decoded.program;
        entry_pc = decoded.entry_pc;
        name = decoded.name;
        max_instructions;
        regs = Array.make Instr.register_count 0;
        fregs = Array.make Instr.register_count 0.;
        call_stack = Array.make max_call_depth 0;
        sp = 0;
        pc = decoded.entry_pc;
        running = true;
        retired = 0;
        loads = 0;
        stores = 0;
        fp_short = 0;
        fp_long = 0;
        int_mul = 0;
        branches = 0;
        taken = 0;
        charged_retired = 0;
        charged_fp_short = 0;
        charged_int_mul = 0;
        charged_taken = 0;
      }

    (* Restore the architectural state [create] built, so one linked runner
       serves every run of a batch (or every activation of an RTOS task).
       The [code] array needs no relink: it binds the memory's backing
       arrays, which are reused (and zeroed by the caller) across runs. *)
    let reset ?entry ?(init_regs = []) t =
      List.iter
        (fun (r, _) ->
          if r < 0 || r >= Instr.register_count then
            invalid_arg "Runner.reset: init register out of range")
        init_regs;
      Array.fill t.regs 0 (Array.length t.regs) 0;
      Array.fill t.fregs 0 (Array.length t.fregs) 0.;
      List.iter (fun (r, v) -> t.regs.(r) <- v) init_regs;
      t.sp <- 0;
      t.pc <-
        (match entry with None -> t.entry_pc | Some l -> Program.label_index t.program l);
      t.running <- true;
      t.retired <- 0;
      t.loads <- 0;
      t.stores <- 0;
      t.fp_short <- 0;
      t.fp_long <- 0;
      t.int_mul <- 0;
      t.branches <- 0;
      t.taken <- 0;
      t.charged_retired <- 0;
      t.charged_fp_short <- 0;
      t.charged_int_mul <- 0;
      t.charged_taken <- 0

    let finished t = not t.running

    let corrupt_int_register t ~reg ~bit =
      if reg < 0 || reg >= Instr.register_count then
        invalid_arg "Runner.corrupt_int_register: register out of range";
      (* Model 32-bit architectural registers: flip one of the low 32 bits. *)
      t.regs.(reg) <- t.regs.(reg) lxor (1 lsl (bit land 31))

    let corrupt_float_register t ~reg ~bit =
      if reg < 0 || reg >= Instr.register_count then
        invalid_arg "Runner.corrupt_float_register: register out of range";
      (* Flip one bit of the IEEE-754 image; upsets in the exponent or sign
         can turn a value into inf/NaN, exactly as on real hardware. *)
      let bits = Int64.bits_of_float t.fregs.(reg) in
      t.fregs.(reg) <-
        Int64.float_of_bits (Int64.logxor bits (Int64.shift_left 1L (bit land 63)))

    let stats t =
      {
        retired = t.retired;
        loads = t.loads;
        stores = t.stores;
        fp_short_ops = t.fp_short;
        fp_long_ops = t.fp_long;
        int_muls = t.int_mul;
        branches = t.branches;
        taken_branches = t.taken;
      }

    (* Retire the instruction at [pc] and fetch it: a fetch on the line of
       the core's previous fetch is only counted. *)
    let[@inline] fetch t (sink : sink) pc =
      t.retired <- t.retired + 1;
      let addr = t.fetch_addrs.(pc) in
      let fl = sink.fetch_line in
      if addr lsr fl.line_shift = fl.line then fl.repeats <- fl.repeats + 1
      else sink.on_fetch addr

    let[@inline] fp_short t sink pc =
      t.fp_short <- t.fp_short + 1;
      t.pc <- pc + 1;
      fetch t sink pc

    let[@inline] branch t (sink : sink) pc cond target =
      t.branches <- t.branches + 1;
      if cond then begin
        t.taken <- t.taken + 1;
        t.pc <- target
      end
      else t.pc <- pc + 1;
      fetch t sink pc

    (* One instruction: architectural effects first (including any
       out-of-bounds raise), then the fetch and the work event, so the
       sequence of stateful platform accesses (and hence every PRNG draw)
       is the same even for runs that crash mid-instruction.  An
       instruction that raises is neither retired nor charged. *)
    let[@inline] exec_one t (sink : sink) =
      let pc = t.pc in
      let op = t.code.(pc) in
      let next = pc + 1 in
      let regs = t.regs and fregs = t.fregs in
      match op with
      | RLi (rd, v) ->
          regs.(rd) <- v;
          t.pc <- next;
          fetch t sink pc
      | RAdd (rd, r1, r2) ->
          regs.(rd) <- regs.(r1) + regs.(r2);
          t.pc <- next;
          fetch t sink pc
      | RAddi (rd, r1, v) ->
          regs.(rd) <- regs.(r1) + v;
          t.pc <- next;
          fetch t sink pc
      | RSub (rd, r1, r2) ->
          regs.(rd) <- regs.(r1) - regs.(r2);
          t.pc <- next;
          fetch t sink pc
      | RMul (rd, r1, r2) ->
          regs.(rd) <- regs.(r1) * regs.(r2);
          t.int_mul <- t.int_mul + 1;
          t.pc <- next;
          fetch t sink pc
      | RFli (fd, v) ->
          fregs.(fd) <- v;
          t.pc <- next;
          fetch t sink pc
      | RFld (fd, a) ->
          let idx = element_index a regs in
          fregs.(fd) <- a.values.(idx);
          t.loads <- t.loads + 1;
          t.pc <- next;
          fetch t sink pc;
          sink.on_read (a.byte_base + (idx * Layout.element_bytes))
      | RFst (fs, a) ->
          let idx = element_index a regs in
          a.values.(idx) <- fregs.(fs);
          t.stores <- t.stores + 1;
          t.pc <- next;
          fetch t sink pc;
          sink.on_write (a.byte_base + (idx * Layout.element_bytes))
      | RFadd (fd, f1, f2) ->
          fregs.(fd) <- fregs.(f1) +. fregs.(f2);
          fp_short t sink pc
      | RFsub (fd, f1, f2) ->
          fregs.(fd) <- fregs.(f1) -. fregs.(f2);
          fp_short t sink pc
      | RFmul (fd, f1, f2) ->
          fregs.(fd) <- fregs.(f1) *. fregs.(f2);
          fp_short t sink pc
      | RFdiv (fd, f1, f2) ->
          let x = fregs.(f1) and y = fregs.(f2) in
          fregs.(fd) <- x /. y;
          t.fp_long <- t.fp_long + 1;
          t.pc <- next;
          fetch t sink pc;
          sink.on_fp_long Instr.Fdiv_op x y
      | RFsqrt (fd, f1) ->
          let x = fregs.(f1) in
          fregs.(fd) <- sqrt x;
          t.fp_long <- t.fp_long + 1;
          t.pc <- next;
          fetch t sink pc;
          sink.on_fp_long Instr.Fsqrt_op x 0.
      | RFabs (fd, f1) ->
          fregs.(fd) <- Float.abs fregs.(f1);
          fp_short t sink pc
      | RFmov (fd, f1) ->
          fregs.(fd) <- fregs.(f1);
          fp_short t sink pc
      | RFcvt (rd, f1) ->
          regs.(rd) <- int_of_float fregs.(f1);
          t.pc <- next;
          fetch t sink pc
      | RIcvt (fd, r1) ->
          fregs.(fd) <- float_of_int regs.(r1);
          t.pc <- next;
          fetch t sink pc
      | RBlt (r1, r2, l) -> branch t sink pc (regs.(r1) < regs.(r2)) l
      | RBge (r1, r2, l) -> branch t sink pc (regs.(r1) >= regs.(r2)) l
      | RBeq (r1, r2, l) -> branch t sink pc (regs.(r1) = regs.(r2)) l
      | RBne (r1, r2, l) -> branch t sink pc (regs.(r1) <> regs.(r2)) l
      | RFblt (f1, f2, l) -> branch t sink pc (fregs.(f1) < fregs.(f2)) l
      | RFbge (f1, f2, l) -> branch t sink pc (fregs.(f1) >= fregs.(f2)) l
      | RJmp l -> branch t sink pc true l
      | RCall l ->
          if t.sp >= max_call_depth then raise (Stack_overflow_ t.name);
          t.call_stack.(t.sp) <- next;
          t.sp <- t.sp + 1;
          branch t sink pc true l
      | RRet ->
          t.branches <- t.branches + 1;
          t.taken <- t.taken + 1;
          (if t.sp = 0 then t.running <- false
           else begin
             t.sp <- t.sp - 1;
             t.pc <- t.call_stack.(t.sp)
           end);
          fetch t sink pc
      | RNop ->
          t.pc <- next;
          fetch t sink pc
      | RHalt ->
          t.running <- false;
          fetch t sink pc

    (* Hand the fixed-latency work retired since the last charge to the
       sink.  The marks move first: [on_retire] may raise (a watchdog). *)
    let charge t (sink : sink) =
      let instructions = t.retired - t.charged_retired
      and fp_short = t.fp_short - t.charged_fp_short
      and int_mul = t.int_mul - t.charged_int_mul
      and taken = t.taken - t.charged_taken in
      t.charged_retired <- t.retired;
      t.charged_fp_short <- t.fp_short;
      t.charged_int_mul <- t.int_mul;
      t.charged_taken <- t.taken;
      sink.on_retire ~instructions ~fp_short ~int_mul ~taken

    let step t ~sink =
      if t.running then begin
        if t.retired >= t.max_instructions then raise (Runaway t.name);
        exec_one t sink;
        charge t sink
      end

    (* The Runaway bound moves out of the inner loop: execute in blocks of
       at most [block] instructions, re-checking the remaining budget only
       at block boundaries.  The raise fires at exactly the instruction
       [step]'s per-instruction check fires on (budget exhausted while
       still running). *)
    let block = 4096

    let run t ~sink =
      (match
         while t.running do
           let budget = t.max_instructions - t.retired in
           if budget <= 0 then raise (Runaway t.name);
           let n = ref (if budget < block then budget else block) in
           while t.running && !n > 0 do
             exec_one t sink;
             decr n
           done
         done
       with
      | () -> charge t sink
      | exception e ->
          charge t sink;
          raise e);
      stats t

    (* Supervised variant for fault-injected runs: every instruction is
       charged on its own, so [on_retire] sees the exact state after each
       one (watchdog, SEU injection). *)
    let run_supervised t ~sink =
      while t.running do
        let budget = t.max_instructions - t.retired in
        if budget <= 0 then raise (Runaway t.name);
        let n = ref (if budget < block then budget else block) in
        while t.running && !n > 0 do
          exec_one t sink;
          charge t sink;
          decr n
        done
      done;
      stats t
  end
end

let run ?max_instructions ~program ~layout ~memory ~sink () =
  let decoded = Decoded.decode ~program ~layout in
  Decoded.Runner.run (Decoded.Runner.create ?max_instructions ~decoded ~memory ()) ~sink

(* Steps with the null sink and folds, FNV-style, the taken/not-taken
   outcome of every instruction that moved the branch counter. *)
let path_signature ?max_instructions ~program ~layout ~memory () =
  let module R = Decoded.Runner in
  let r = R.create ?max_instructions ~decoded:(Decoded.decode ~program ~layout) ~memory () in
  let h = ref 0 in
  while r.R.running do
    let branches = r.R.branches and taken = r.R.taken in
    R.step r ~sink:null_sink;
    if r.R.branches > branches then
      h := ((!h * 16777619) lxor if r.R.taken > taken then 1 else 2) land max_int
  done;
  !h
