type access = Read | Write

type classification = Segv | Minor | Cow_or_upgrade | Present

let classify vmas pt ~addr ~access =
  match Vma.find vmas addr with
  | None -> Segv
  | Some vma ->
      let allowed =
        match access with
        | Read -> vma.Vma.prot.Vma.read
        | Write -> vma.Vma.prot.Vma.write
      in
      if not allowed then Segv
      else begin
        match Page_table.get pt ~vpn:(Page_table.vpn_of_addr addr) with
        | None -> Minor
        | Some pte -> (
            match access with
            | Read -> Present
            | Write ->
                if pte.Page_table.writable then Present else Cow_or_upgrade)
      end

let pp fmt = function
  | Segv -> Format.pp_print_string fmt "segv"
  | Minor -> Format.pp_print_string fmt "minor"
  | Cow_or_upgrade -> Format.pp_print_string fmt "cow-or-upgrade"
  | Present -> Format.pp_print_string fmt "present"
