(** Bounded multi-producer multi-consumer queue.

    The serve subsystem's admission-control primitive. {!try_push}
    {e never blocks}: it refuses when the queue is at capacity (or
    closed), which is the server's signal to shed the request with a
    busy reply. Consumers block in {!pop} until work arrives or the
    queue is closed and drained. All operations are safe from any thread
    or domain. *)

type 'a t

val create : capacity:int -> 'a t
(** A queue holding at most [capacity] items. Raises [Invalid_argument]
    if [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** Enqueue without blocking: [false] when the queue is full or closed
    (the item is not enqueued — shed it), [true] otherwise. *)

val pop : 'a t -> 'a option
(** Block until an item is available and dequeue it; [None] once the
    queue is closed {e and} drained — the consumer's signal to exit. *)

val close : 'a t -> unit
(** Refuse all future pushes and wake every blocked consumer. Items
    already queued are still delivered ([pop] drains before returning
    [None]). Idempotent. *)

val length : 'a t -> int
(** Items currently queued (racy snapshot, exact under the lock). *)

val capacity : 'a t -> int
(** The bound given to {!create}. *)

val is_closed : 'a t -> bool
(** Whether {!close} has been called. *)
