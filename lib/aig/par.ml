(* Fork-join parallel-for: chunk 0 runs in the caller, chunks 1..w-1
   each in a domain spawned for this call, and [Domain.join] is both the
   barrier and the happens-before edge that publishes the chunks' writes
   to the caller.  A call spawns afresh (a spawn plus join costs
   0.1–0.7 ms on a 2-vCPU x86-64 host), so no domain outlives the call
   that needs it, nesting cannot deadlock, and idle domains never
   compete for the CPU with the caller.  Determinism is the caller's
   contract: bodies write only per-chunk or per-index state. *)

let width ~jobs = max 1 jobs

(* Below this many iterations the spawns cost more than the chunks
   save; run inline (chunk index 0, which every scratch scheme must
   accept for the full range). *)
let seq_threshold = 32

let run ~jobs ~n f =
  let w = width ~jobs in
  if n <= 0 then ()
  else if w = 1 || n < max seq_threshold (2 * w) then f 0 0 n
  else begin
    let chunk i () = f i (i * n / w) ((i + 1) * n / w) in
    (* [err] keeps the first failure: a failed spawn stops spawning (the
       domains already running are still joined before it is
       re-raised), else the lowest-indexed raising chunk. *)
    let err = ref None and doms = ref [] in
    (try
       for i = 1 to w - 1 do
         doms := Domain.spawn (chunk i) :: !doms
       done;
       chunk 0 ()
     with e -> err := Some e);
    List.iter
      (fun d ->
        match Domain.join d with
        | () -> ()
        | exception e -> if !err = None then err := Some e)
      (List.rev !doms);
    Option.iter raise !err
  end
