let default_jobs () = Domain.recommended_domain_count ()

module Pool = struct
  (* Each published batch owns its cursor and completion counter, so a
     worker that wakes late (or finishes late) can only ever touch the
     batch it actually saw — never the cursor of a subsequent batch. *)
  type batch = {
    task : int -> unit;
    total : int;
    next : int Atomic.t;  (* next unclaimed task index *)
    mutable completed : int;  (* guarded by the pool mutex *)
    generation : int;
  }

  type t = {
    jobs : int;
    mutex : Mutex.t;
    work : Condition.t;  (* signalled when a batch is published or on stop *)
    finished : Condition.t;  (* signalled when a batch's last task completes *)
    mutable current : batch option;
    mutable generation : int;
    mutable stop : bool;
    mutable domains : unit Domain.t list;
  }

  (* Claim and execute tasks until the cursor runs past the batch. Tasks are
     claimed one index at a time: batches are small (one task = one whole
     function compile), so cursor contention is negligible and dynamic
     claiming gives the load balancing a static split would lose. *)
  let drain t (b : batch) =
    let rec loop () =
      let i = Atomic.fetch_and_add b.next 1 in
      if i < b.total then begin
        b.task i;
        Mutex.lock t.mutex;
        b.completed <- b.completed + 1;
        if b.completed = b.total then Condition.broadcast t.finished;
        Mutex.unlock t.mutex;
        loop ()
      end
    in
    loop ()

  let worker t () =
    let last_gen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.mutex;
      while
        (not t.stop)
        && (match t.current with
           | None -> true
           | Some b -> b.generation = !last_gen)
      do
        Condition.wait t.work t.mutex
      done;
      if t.stop then begin
        Mutex.unlock t.mutex;
        running := false
      end
      else begin
        let b = Option.get t.current in
        last_gen := b.generation;
        Mutex.unlock t.mutex;
        drain t b
      end
    done

  let create ?jobs () =
    let jobs = max 1 (Option.value ~default:(default_jobs ()) jobs) in
    let t =
      {
        jobs;
        mutex = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        current = None;
        generation = 0;
        stop = false;
        domains = [];
      }
    in
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
    t

  let jobs t = t.jobs

  let run t ~total task =
    if total < 0 then invalid_arg "Engine.Pool.run";
    if total > 0 then begin
      if t.stop then invalid_arg "Engine.Pool.run: pool is shut down";
      if t.domains = [] then
        for i = 0 to total - 1 do
          task i
        done
      else begin
        t.generation <- t.generation + 1;
        let b =
          {
            task;
            total;
            next = Atomic.make 0;
            completed = 0;
            generation = t.generation;
          }
        in
        Mutex.lock t.mutex;
        t.current <- Some b;
        Condition.broadcast t.work;
        Mutex.unlock t.mutex;
        (* The submitting domain works the batch too. *)
        drain t b;
        Mutex.lock t.mutex;
        while b.completed < b.total do
          Condition.wait t.finished t.mutex
        done;
        t.current <- None;
        Mutex.unlock t.mutex
      end
    end

  (* One long-running body per domain of the pool. A domain cannot claim a
     second index before its first body returns (the cursor is claimed one
     task at a time and each domain runs exactly one), so [body] instances
     run simultaneously on distinct domains for the whole call — the shape
     a server needs to turn the batch pool into resident workers, each
     with its warm scratch arena. *)
  let run_workers t body = run t ~total:t.jobs body

  let map_array t f arr =
    let n = Array.length arr in
    let results = Array.make n None in
    let errors = Array.make n None in
    run t ~total:n (fun i ->
        match f arr.(i) with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some e);
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map Option.get results

  let shutdown t =
    Mutex.lock t.mutex;
    let already = t.stop in
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    if not already then begin
      List.iter Domain.join t.domains;
      t.domains <- []
    end

  let with_pool ?jobs f =
    let t = create ?jobs () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

module Stream = struct
  let default_window = 64

  (* jobs = 1: no feed lock, no ring — a plain pull/compute/emit loop.
     This is also the semantic reference the parallel path must match. *)
  let run_seq ~producer ~consumer f =
    let rec loop seq =
      match producer () with
      | None -> ()
      | Some x ->
        consumer seq (f x);
        loop (seq + 1)
    in
    loop 0

  (* The parallel path. There is no producer domain: every domain of the
     pool loops take/compute/submit. [take] runs under the feed mutex, so
     [producer] is never called concurrently; it waits at the admission
     gate, calls [producer], and hands out the next sequence number.
     [submit] parks results in a [window]-sized ring indexed by
     [seq mod window] and advances the in-order emission frontier under
     one mutex, calling [consumer] for each result as it becomes the
     frontier. A domain takes an item only when it is free to compute
     it, so an item's wait between admission and compute is one
     producer call, and every domain reads input as well as computing.

     Memory is bounded by construction, not by luck: admission waits
     while [seq - next_emit >= window], so every live sequence number
     (computing or parked) lies in [next_emit, next_emit + window). That
     both caps the number of results alive at once and guarantees
     distinct live sequences map to distinct ring slots. A full window
     cannot deadlock: the domain waiting at the gate holds no item, and
     the frontier item computes on another domain, whose [submit] needs
     only the emission lock.

     Errors keep the frontier semantics of the batch API: the first
     exception to {e reach the frontier} (equivalently, the lowest-seq
     failing item) is recorded, later results are drained but not
     emitted, the feed stops taking new input, and the exception is
     re-raised after the pool quiesces. A [consumer] exception is treated
     the same way, and so is a [producer] exception: it becomes the result
     of the sequence number the producer was asked for. *)
  let run_par pool ~window ~producer ~consumer f =
    let ring = Array.make window None in
    let lock = Mutex.create () in
    let space = Condition.create () in
    let next_emit = ref 0 in
    let first_error = ref None in
    let submit seq r =
      Mutex.lock lock;
      ring.(seq mod window) <- Some r;
      let advanced = ref false in
      let rec advance () =
        match ring.(!next_emit mod window) with
        | None -> ()
        | Some r ->
          ring.(!next_emit mod window) <- None;
          (match r with
          | Ok v ->
            if !first_error = None then (
              try consumer !next_emit v
              with e -> first_error := Some e)
          | Error e -> if !first_error = None then first_error := Some e);
          incr next_emit;
          advanced := true;
          advance ()
      in
      advance ();
      if !advanced then Condition.broadcast space;
      Mutex.unlock lock
    in
    (* The feed: guarded by [feed], taken before [lock] when both are
       held. *)
    let feed = Mutex.create () in
    let next_seq = ref 0 in
    let exhausted = ref false in
    let take () =
      Mutex.lock feed;
      let item =
        if !exhausted then None
        else begin
          let seq = !next_seq in
          Mutex.lock lock;
          while !first_error = None && seq - !next_emit >= window do
            Condition.wait space lock
          done;
          let failed = !first_error <> None in
          Mutex.unlock lock;
          if failed then (
            exhausted := true;
            None)
          else
            match producer () with
            | None ->
              exhausted := true;
              None
            | Some x ->
              next_seq := seq + 1;
              Some (seq, x)
            | exception e ->
              (* The gate above keeps slot [seq] free, so the failure takes
                 the place of the item that could not be read and reaches
                 the frontier after every item pulled before it. *)
              exhausted := true;
              submit seq (Error e);
              None
        end
      in
      Mutex.unlock feed;
      item
    in
    let rec work () =
      match take () with
      | None -> ()
      | Some (seq, x) ->
        submit seq (try Ok (f x) with e -> Error e);
        work ()
    in
    Pool.run_workers pool (fun _ -> work ());
    match !first_error with Some e -> raise e | None -> ()

  let run pool ?(window = default_window) ~producer ~consumer f =
    if window < 1 then invalid_arg "Engine.Stream.run: window must be >= 1";
    if Pool.jobs pool <= 1 then run_seq ~producer ~consumer f
    else run_par pool ~window ~producer ~consumer f

  let of_list l =
    let remaining = ref l in
    fun () ->
      match !remaining with
      | [] -> None
      | x :: tl ->
        remaining := tl;
        Some x
end
