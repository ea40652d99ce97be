(* A bounded multi-producer multi-consumer queue — the serve path's
   admission hinge. [try_push] never blocks: a full or closed queue
   refuses the item and the caller sheds it (the server's busy-reply
   story). Consumers block until an item arrives or the queue is closed
   and drained. *)

type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  {
    capacity;
    q = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let try_push t x =
  locked t (fun () ->
      if t.closed || Queue.length t.q >= t.capacity then false
      else begin
        Queue.add x t.q;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  locked t (fun () ->
      while Queue.is_empty t.q && not t.closed do
        Condition.wait t.nonempty t.lock
      done;
      if Queue.is_empty t.q then None else Some (Queue.take t.q))

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = locked t (fun () -> Queue.length t.q)
let capacity t = t.capacity
let is_closed t = locked t (fun () -> t.closed)
