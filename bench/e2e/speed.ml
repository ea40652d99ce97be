(* How fast the machine runs right now, measured with fixed work of the
   benchmark's own that calls nothing under test.

   On the 2-vCPU KVM guest (Xeon, 2.1 GHz) the bounds were set on, the
   same compile loop ran up to twice as slow from one minute to the next
   with nothing else running in the guest: the host's other tenants share
   its cores. Two sets of ten runs of the same code differed by up to 35%
   in their medians, more than any bound may be. So compute-bound timings
   are reported at a fixed nominal speed: each is multiplied by the
   [factor] of samples of this work taken beside it. A change to the
   program moves the scaled time as it moves the wall time, because the
   reference work does not run the program; a change in the machine's
   speed moves the samples too, and cancels out.

   The work allocates nothing and its 64 KB stay in the core's own
   caches, so neither the program's heap nor what it left in the caches
   changes how long it takes: a pointer chase through a random cycle (load
   latency) and an in-place sort (branches and compares). What it tracks
   is the core's speed, which the other tenants move. Of the variants
   tried, which also chased through 256 KB and 2 MB or built a Map, this
   one kept the scaled suite-graph timings closest together. *)

let chase_n = 1 lsl 12
let chase_steps = 20_000
let sort_n = 4_000

let cycle =
  let st = Random.State.make [| 7 |] in
  let order = Array.init chase_n Fun.id in
  for i = chase_n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let next = Array.make chase_n 0 in
  Array.iteri (fun i x -> next.(x) <- order.((i + 1) mod chase_n)) order;
  next

let keys =
  let st = Random.State.make [| 8 |] in
  Array.init sort_n (fun _ -> Random.State.bits st)

(* The sort's buffer, one per domain: two domains sampling at once must
   not write to the same memory. *)
let buf = Domain.DLS.new_key (fun () -> Array.make sort_n 0)

let work () =
  let p = ref 0 in
  for _ = 1 to chase_steps do
    p := Array.unsafe_get cycle !p
  done;
  let buf = Domain.DLS.get buf in
  Array.blit keys 0 buf 0 sort_n;
  Array.sort (fun (a : int) b -> compare a b) buf;
  ignore (Sys.opaque_identity (!p + buf.(0)))

let time_work () =
  let t0 = Harness.Measure.now_s () in
  work ();
  Harness.Measure.now_s () -. t0

(* Seconds one unit of the work takes now: the median of three, after an
   untimed one that brings the work's data into the cache. About 4 ms in
   all. *)
let sample () =
  work ();
  let a = [| time_work (); time_work (); time_work () |] in
  Array.sort Float.compare a;
  a.(1)

(* What [sample] read on the machine above in its fast state. Scaled
   times are times on that machine at that speed. *)
let nominal = 0.8e-3

(* The machine's speed over a stretch of time from samples taken in it:
   1 at [nominal] speed, 0.5 at half of it. A time measured in that
   stretch times this factor is the time at nominal speed. *)
let factor samples = nominal /. Stats.median samples
