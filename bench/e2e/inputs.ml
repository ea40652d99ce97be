(* The programs every workload compiles, built from the run's seed. Only
   generated inputs reach the system under test; the same seed always
   gives the same inputs. *)

type item = {
  name : string;
  func : Ir.func;  (* strict, validated, non-SSA *)
  wire : string;  (* the text the workload receives this function as *)
  args : Ir.value list option;  (* Some: a kernel, interpretable with these *)
  paper : bool;  (* part of the fixed paper suite: 43 kernels + 5 large *)
}

let rng seed salt = Random.State.make [| seed; salt |]

let of_source ?args ?(paper = false) name src =
  let func = Frontend.Lower.compile_one src in
  Ir.Validate.check_exn func;
  { name; func; wire = src; args; paper }

let generator_config seed size = { Workloads.Generator.default with seed; size }

let large_config seed size =
  { Workloads.Generator.seed; size; num_vars = 16; max_depth = 4 }

(* The suite both suite workloads compile: the paper's 43 kernels and the
   five large routines of [Workloads.Suite.large] (same generator
   configurations, so the same functions), plus 15 seeded structured
   programs and 2 seeded numeric routines. The seeded programs are kept
   between the kernels and the large routines in size, so they move the
   mix without moving the median (a kernel) or the 99th percentile (the
   largest routine) of per-function compile time; 65 items keep both
   ranks inside one item's samples rather than on a boundary. *)
let suite ~seed =
  let kernels =
    List.map
      (fun (name, src, n) ->
        of_source ~paper:true ~args:[ Ir.Int n; Ir.Int 3 ] name src)
      Workloads.Kernels.all
  in
  let src ast = Frontend.Ast.func_to_source ast in
  let large =
    List.map
      (fun (seed, size) ->
        of_source ~paper:true (Printf.sprintf "big%d" size)
          (src (Workloads.Generator.generate (large_config seed size))))
      [ (101, 300); (102, 600); (103, 1200) ]
    @ List.map
        (fun (seed, size) ->
          of_source ~paper:true (Printf.sprintf "num%d" size)
            (src (Workloads.Generator.generate_numeric (large_config seed size))))
        [ (201, 250); (202, 500) ]
  in
  let st = rng seed 1 in
  let seeded =
    List.init 15 (fun i ->
        let size = List.nth [ 60; 80; 100 ] (i mod 3) in
        let cfg = generator_config (Random.State.bits st) size in
        of_source (Printf.sprintf "gen%d" i) (src (Workloads.Generator.generate cfg)))
    @ List.mapi
        (fun i size ->
          let cfg = large_config (Random.State.bits st) size in
          of_source (Printf.sprintf "numeric%d" i)
            (src (Workloads.Generator.generate_numeric cfg)))
        [ 60; 120 ]
  in
  Array.of_list (kernels @ large @ seeded)

(* A seeded visiting order, so no workload depends on one fixed order. *)
let shuffle ~seed n =
  let a = Array.init n Fun.id in
  let st = rng seed 2 in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Serve requests carry one-line mini-language programs. *)
let one_line s = String.map (fun c -> if c = '\n' then ' ' else c) s

(* [count] generated programs of sizes 20, 40 and 80 statements, as
   one-line source; the same for every run. *)
let serve_programs ~salt count =
  let st = rng 0 salt in
  List.init count (fun i ->
      let size = List.nth [ 20; 40; 80 ] (i mod 3) in
      let ast = Workloads.Generator.generate (generator_config (Random.State.bits st) size) in
      { ast with Frontend.Ast.name = Printf.sprintf "s%d_%d" salt i }
      |> Frontend.Ast.func_to_source |> one_line)

(* A fresh request body: a base program under a new function name, so it
   prints differently and gets its own cache key while compiling exactly
   like its base. *)
let rename src k =
  Printf.sprintf "func f%d_%s" k (String.sub src 5 (String.length src - 5))
