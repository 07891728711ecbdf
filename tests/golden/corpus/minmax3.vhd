-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'minmax3'
-- data path: 13 nodes (5 soft, 8 hard), 2 pipeline stages
-- netlist: 22 cells, 38 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node1 is
  port (
    v0_A0 : in signed(11 downto 0);
    v1_A1 : in signed(11 downto 0);
    v3_t_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_node1;

architecture rtl of minmax3_dp_node1 is
  signal v3_t : unsigned(0 downto 0);
begin
  v3_t <= "1" when resize(v1_A1, 13) < resize(v0_A0, 13) else "0";
  v3_t_out <= v3_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_mux_bb3 is
  port (
    v11_A0_pipe : in signed(11 downto 0);
    v12_A1_pipe : in signed(11 downto 0);
    v14_pipe : in unsigned(0 downto 0);
    v4_mn_2_out : out signed(11 downto 0)
  );
end entity minmax3_dp_mux_bb3;

architecture rtl of minmax3_dp_mux_bb3 is
  signal v4_mn_2 : signed(11 downto 0);
begin
  v4_mn_2 <= v12_A1_pipe when v14_pipe = 1 else v11_A0_pipe;
  v4_mn_2_out <= v4_mn_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node3 is
  port (
    v4_mn_2 : in signed(11 downto 0);
    v13_A2_pipe : in signed(11 downto 0);
    v5_t_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_node3;

architecture rtl of minmax3_dp_node3 is
  signal v5_t : unsigned(0 downto 0);
begin
  v5_t <= "1" when resize(v13_A2_pipe, 13) < resize(v4_mn_2, 13) else "0";
  v5_t_out <= v5_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_mux_bb6 is
  port (
    v13_A2_pipe : in signed(11 downto 0);
    v15_mn_2_pipe : in signed(11 downto 0);
    v16_pipe : in unsigned(0 downto 0);
    v6_mn_4_out : out signed(11 downto 0)
  );
end entity minmax3_dp_mux_bb6;

architecture rtl of minmax3_dp_mux_bb6 is
  signal v6_mn_4 : signed(11 downto 0);
begin
  v6_mn_4 <= v13_A2_pipe when v16_pipe = 1 else v15_mn_2_pipe;
  v6_mn_4_out <= v6_mn_4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node5 is
  port (
    v11_A0_pipe : in signed(11 downto 0);
    v12_A1_pipe : in signed(11 downto 0);
    v7_t_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_node5;

architecture rtl of minmax3_dp_node5 is
  signal v7_t : unsigned(0 downto 0);
begin
  v7_t <= "1" when resize(v12_A1_pipe, 13) > resize(v11_A0_pipe, 13) else "0";
  v7_t_out <= v7_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_mux_bb9 is
  port (
    v11_A0_pipe : in signed(11 downto 0);
    v12_A1_pipe : in signed(11 downto 0);
    v17_pipe : in unsigned(0 downto 0);
    v8_mx_2_out : out signed(11 downto 0)
  );
end entity minmax3_dp_mux_bb9;

architecture rtl of minmax3_dp_mux_bb9 is
  signal v8_mx_2 : signed(11 downto 0);
begin
  v8_mx_2 <= v12_A1_pipe when v17_pipe = 1 else v11_A0_pipe;
  v8_mx_2_out <= v8_mx_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node7 is
  port (
    v8_mx_2 : in signed(11 downto 0);
    v13_A2_pipe : in signed(11 downto 0);
    v9_t_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_node7;

architecture rtl of minmax3_dp_node7 is
  signal v9_t : unsigned(0 downto 0);
begin
  v9_t <= "1" when resize(v13_A2_pipe, 13) > resize(v8_mx_2, 13) else "0";
  v9_t_out <= v9_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_mux_bb12 is
  port (
    v13_A2_pipe : in signed(11 downto 0);
    v18_mx_2_pipe : in signed(11 downto 0);
    v19_pipe : in unsigned(0 downto 0);
    v10_mx_4_out : out signed(11 downto 0)
  );
end entity minmax3_dp_mux_bb12;

architecture rtl of minmax3_dp_mux_bb12 is
  signal v10_mx_4 : signed(11 downto 0);
begin
  v10_mx_4 <= v13_A2_pipe when v19_pipe = 1 else v18_mx_2_pipe;
  v10_mx_4_out <= v10_mx_4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node9 is
  port (
  );
end entity minmax3_dp_node9;

architecture rtl of minmax3_dp_node9 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_pipe_bb3 is
  port (
    v0_A0 : in signed(11 downto 0);
    v1_A1 : in signed(11 downto 0);
    v2_A2 : in signed(11 downto 0);
    v3_t : in unsigned(0 downto 0);
    v11_A0_pipe_out : out signed(11 downto 0);
    v12_A1_pipe_out : out signed(11 downto 0);
    v13_A2_pipe_out : out signed(11 downto 0);
    v14_pipe_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_pipe_bb3;

architecture rtl of minmax3_dp_pipe_bb3 is
  signal v11_A0_pipe : signed(11 downto 0);
  signal v12_A1_pipe : signed(11 downto 0);
  signal v13_A2_pipe : signed(11 downto 0);
  signal v14_pipe : unsigned(0 downto 0);
begin
  v11_A0_pipe <= v0_A0;
  v12_A1_pipe <= v1_A1;
  v13_A2_pipe <= v2_A2;
  v14_pipe <= v3_t;
  v11_A0_pipe_out <= v11_A0_pipe;
  v12_A1_pipe_out <= v12_A1_pipe;
  v13_A2_pipe_out <= v13_A2_pipe;
  v14_pipe_out <= v14_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_pipe_bb6 is
  port (
    v4_mn_2 : in signed(11 downto 0);
    v5_t : in unsigned(0 downto 0);
    v15_mn_2_pipe_out : out signed(11 downto 0);
    v16_pipe_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_pipe_bb6;

architecture rtl of minmax3_dp_pipe_bb6 is
  signal v15_mn_2_pipe : signed(11 downto 0);
  signal v16_pipe : unsigned(0 downto 0);
begin
  v15_mn_2_pipe <= v4_mn_2;
  v16_pipe <= v5_t;
  v15_mn_2_pipe_out <= v15_mn_2_pipe;
  v16_pipe_out <= v16_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_pipe_bb9 is
  port (
    v7_t : in unsigned(0 downto 0);
    v17_pipe_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_pipe_bb9;

architecture rtl of minmax3_dp_pipe_bb9 is
  signal v17_pipe : unsigned(0 downto 0);
begin
  v17_pipe <= v7_t;
  v17_pipe_out <= v17_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_pipe_bb12 is
  port (
    v8_mx_2 : in signed(11 downto 0);
    v9_t : in unsigned(0 downto 0);
    v18_mx_2_pipe_out : out signed(11 downto 0);
    v19_pipe_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_pipe_bb12;

architecture rtl of minmax3_dp_pipe_bb12 is
  signal v18_mx_2_pipe : signed(11 downto 0);
  signal v19_pipe : unsigned(0 downto 0);
begin
  v18_mx_2_pipe <= v8_mx_2;
  v19_pipe <= v9_t;
  v18_mx_2_pipe_out <= v18_mx_2_pipe;
  v19_pipe_out <= v19_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    MN_o0 : out signed(11 downto 0);
    MX_o0 : out signed(11 downto 0)
  );
end entity minmax3_dp;

architecture rtl of minmax3_dp is
  signal v3_t : unsigned(0 downto 0);
  signal v4_mn_2 : signed(11 downto 0);
  signal v5_t : unsigned(0 downto 0);
  signal v6_mn_4 : signed(11 downto 0);
  signal v7_t : unsigned(0 downto 0);
  signal v8_mx_2 : signed(11 downto 0);
  signal v9_t : unsigned(0 downto 0);
  signal v10_mx_4 : signed(11 downto 0);
  signal v11_A0_pipe : signed(11 downto 0);
  signal v12_A1_pipe : signed(11 downto 0);
  signal v13_A2_pipe : signed(11 downto 0);
  signal v14_pipe : unsigned(0 downto 0);
  signal v15_mn_2_pipe : signed(11 downto 0);
  signal v16_pipe : unsigned(0 downto 0);
  signal v17_pipe : unsigned(0 downto 0);
  signal v18_mx_2_pipe : signed(11 downto 0);
  signal v19_pipe : unsigned(0 downto 0);
  signal v16_pipe_p1 : unsigned(0 downto 0);
  signal v13_A2_pipe_p1 : signed(11 downto 0);
  signal v15_mn_2_pipe_p1 : signed(11 downto 0);
  signal v19_pipe_p1 : unsigned(0 downto 0);
  signal v18_mx_2_pipe_p1 : signed(11 downto 0);
begin
  u_node1 : entity work.minmax3_dp_node1
    port map (v0_A0 => A0, v1_A1 => A1, v3_t_out => v3_t);
  u_mux_bb3 : entity work.minmax3_dp_mux_bb3
    port map (v11_A0_pipe => v11_A0_pipe, v12_A1_pipe => v12_A1_pipe, v14_pipe => v14_pipe, v4_mn_2_out => v4_mn_2);
  u_node3 : entity work.minmax3_dp_node3
    port map (v4_mn_2 => v4_mn_2, v13_A2_pipe => v13_A2_pipe, v5_t_out => v5_t);
  u_mux_bb6 : entity work.minmax3_dp_mux_bb6
    port map (v13_A2_pipe => v13_A2_pipe_p1, v15_mn_2_pipe => v15_mn_2_pipe_p1, v16_pipe => v16_pipe_p1, v6_mn_4_out => v6_mn_4);
  u_node5 : entity work.minmax3_dp_node5
    port map (v11_A0_pipe => v11_A0_pipe, v12_A1_pipe => v12_A1_pipe, v7_t_out => v7_t);
  u_mux_bb9 : entity work.minmax3_dp_mux_bb9
    port map (v11_A0_pipe => v11_A0_pipe, v12_A1_pipe => v12_A1_pipe, v17_pipe => v17_pipe, v8_mx_2_out => v8_mx_2);
  u_node7 : entity work.minmax3_dp_node7
    port map (v8_mx_2 => v8_mx_2, v13_A2_pipe => v13_A2_pipe, v9_t_out => v9_t);
  u_mux_bb12 : entity work.minmax3_dp_mux_bb12
    port map (v13_A2_pipe => v13_A2_pipe_p1, v18_mx_2_pipe => v18_mx_2_pipe_p1, v19_pipe => v19_pipe_p1, v10_mx_4_out => v10_mx_4);
  u_node9 : entity work.minmax3_dp_node9
    port map ();
  u_pipe_bb3 : entity work.minmax3_dp_pipe_bb3
    port map (v0_A0 => A0, v1_A1 => A1, v2_A2 => A2, v3_t => v3_t, v11_A0_pipe_out => v11_A0_pipe, v12_A1_pipe_out => v12_A1_pipe, v13_A2_pipe_out => v13_A2_pipe, v14_pipe_out => v14_pipe);
  u_pipe_bb6 : entity work.minmax3_dp_pipe_bb6
    port map (v4_mn_2 => v4_mn_2, v5_t => v5_t, v15_mn_2_pipe_out => v15_mn_2_pipe, v16_pipe_out => v16_pipe);
  u_pipe_bb9 : entity work.minmax3_dp_pipe_bb9
    port map (v7_t => v7_t, v17_pipe_out => v17_pipe);
  u_pipe_bb12 : entity work.minmax3_dp_pipe_bb12
    port map (v8_mx_2 => v8_mx_2, v9_t => v9_t, v18_mx_2_pipe_out => v18_mx_2_pipe, v19_pipe_out => v19_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v16_pipe_p1 <= v16_pipe;
        v13_A2_pipe_p1 <= v13_A2_pipe;
        v15_mn_2_pipe_p1 <= v15_mn_2_pipe;
        v19_pipe_p1 <= v19_pipe;
        v18_mx_2_pipe_p1 <= v18_mx_2_pipe;
      end if;
    end if;
  end process;
  MN_o0 <= resize(v6_mn_4, 12);
  MX_o0 <= resize(v10_mx_4, 12);
end architecture rtl;
