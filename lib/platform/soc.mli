(** The 4-core SoC of the reference architecture: the analyzed application
    runs on core 0 while co-runner cores generate bus pressure (the paper's
    platform is a 4-core LEON3 with a shared bus to the DRAM controller;
    its evaluation runs TVCA alone, and the multicore ablation A4 turns the
    co-runners on).

    Co-runners are modelled by their bus pressure — the probability that a
    co-runner occupies a bus slot when core 0 requests it — rather than by
    cycle-accurate co-simulation; round-robin arbitration then bounds the
    per-transaction interference, which is the property MBPTA needs. *)

type t

type co_runner = Idle | Memory_hog of float  (** bus pressure in [0, 1] *)

val core_count : int

(** [create ~config ~seed ~co_runners] — [co_runners] configures cores 1-3
    (shorter lists leave the rest [Idle]). *)
val create : config:Config.t -> seed:int64 -> co_runners:co_runner list -> t

(** The analyzed core (core 0). *)
val analyzed_core : t -> Core_sim.t
