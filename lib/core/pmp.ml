open Simkit
open Nsk

type t = {
  pmp_name : string;
  capacity : int;
  mem : Servernet.Page_store.t;
  ep : Servernet.Fabric.endpoint;
  host : Cpu.t;
  mutable alive : bool;
}

(* DRAM-hosted: losing power or the hosting CPU drops every page. *)
let power_loss t =
  if t.alive then begin
    t.alive <- false;
    Servernet.Fabric.set_alive t.ep false;
    Servernet.Page_store.clear t.mem
  end

let create cpu fabric ~name ~capacity =
  if capacity <= 0 then invalid_arg "Pmp.create: capacity must be positive";
  let mem = Servernet.Page_store.create capacity in
  let store =
    {
      Servernet.Fabric.size = capacity;
      read = Servernet.Page_store.read mem;
      write = Servernet.Page_store.write mem;
    }
  in
  let ep = Servernet.Fabric.attach fabric ~name ~store in
  let t = { pmp_name = name; capacity; mem; ep; host = cpu; alive = true } in
  (* The hosting process only pins the memory; data moves by RDMA without
     any PMP CPU involvement, exactly as the paper stresses. *)
  let pid = Cpu.spawn cpu ~name (fun () -> ignore (Mailbox.recv (Mailbox.create () : unit Mailbox.t))) in
  Sim.on_exit (Cpu.sim cpu) pid (fun _ -> power_loss t);
  t

let name t = t.pmp_name

let capacity t = t.capacity

let endpoint t = t.ep

let id t = Servernet.Fabric.id t.ep

let avt t = Servernet.Fabric.avt t.ep

let is_alive t = t.alive

let fenced_writes t = Servernet.Avt.fenced (Servernet.Fabric.avt t.ep)

let peek t ~off ~len =
  if off < 0 || len < 0 || off + len > t.capacity then invalid_arg "Pmp.peek: out of range";
  Servernet.Page_store.read t.mem ~off ~len

let poke t ~off ~data =
  let len = Bytes.length data in
  if off < 0 || off + len > t.capacity then invalid_arg "Pmp.poke: out of range";
  Servernet.Page_store.write t.mem ~off ~data
