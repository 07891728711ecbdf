-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'running_max'
-- data path: 4 nodes (2 soft, 2 hard), 1 pipeline stages
-- netlist: 6 cells, 16 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp_node1 is
  port (
    v0_A0 : in signed(15 downto 0);
    v1_mx_prev_out : out signed(15 downto 0);
    v2_t_out : out unsigned(0 downto 0)
  );
end entity running_max_dp_node1;

architecture rtl of running_max_dp_node1 is
  signal v1_mx_prev : signed(15 downto 0);
  signal v2_t : unsigned(0 downto 0);
begin
  v2_t <= "1" when resize(v0_A0, 17) > resize(v1_mx_prev, 17) else "0";
  v1_mx_prev_out <= v1_mx_prev;
  v2_t_out <= v2_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp_mux_bb3 is
  port (
    v4_A0_pipe : in signed(15 downto 0);
    v5_mx_prev_pipe : in signed(15 downto 0);
    v6_pipe : in unsigned(0 downto 0);
    v3_mx_fb_2_out : out signed(15 downto 0)
  );
end entity running_max_dp_mux_bb3;

architecture rtl of running_max_dp_mux_bb3 is
  signal v3_mx_fb_2 : signed(15 downto 0);
begin
  v3_mx_fb_2 <= v4_A0_pipe when v6_pipe = 1 else v5_mx_prev_pipe;
  v3_mx_fb_2_out <= v3_mx_fb_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp_node3 is
  port (
  );
end entity running_max_dp_node3;

architecture rtl of running_max_dp_node3 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp_pipe_bb3 is
  port (
    v0_A0 : in signed(15 downto 0);
    v1_mx_prev : in signed(15 downto 0);
    v2_t : in unsigned(0 downto 0);
    v4_A0_pipe_out : out signed(15 downto 0);
    v5_mx_prev_pipe_out : out signed(15 downto 0);
    v6_pipe_out : out unsigned(0 downto 0)
  );
end entity running_max_dp_pipe_bb3;

architecture rtl of running_max_dp_pipe_bb3 is
  signal v4_A0_pipe : signed(15 downto 0);
  signal v5_mx_prev_pipe : signed(15 downto 0);
  signal v6_pipe : unsigned(0 downto 0);
begin
  v4_A0_pipe <= v0_A0;
  v5_mx_prev_pipe <= v1_mx_prev;
  v6_pipe <= v2_t;
  v4_A0_pipe_out <= v4_A0_pipe;
  v5_mx_prev_pipe_out <= v5_mx_prev_pipe;
  v6_pipe_out <= v6_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    valid : in std_logic;
    A0 : in signed(15 downto 0);
    M_o0 : out signed(15 downto 0);
    last : out signed(15 downto 0)
  );
end entity running_max_dp;

architecture rtl of running_max_dp is
  signal v1_mx_prev : signed(15 downto 0);
  signal v2_t : unsigned(0 downto 0);
  signal v3_mx_fb_2 : signed(15 downto 0);
  signal v4_A0_pipe : signed(15 downto 0);
  signal v5_mx_prev_pipe : signed(15 downto 0);
  signal v6_pipe : unsigned(0 downto 0);
  signal mx_reg : signed(15 downto 0) := to_signed(-32768, 15 + 1);
begin
  u_node1 : entity work.running_max_dp_node1
    port map (v0_A0 => A0, v1_mx_prev_out => v1_mx_prev, v2_t_out => v2_t);
  u_mux_bb3 : entity work.running_max_dp_mux_bb3
    port map (v4_A0_pipe => v4_A0_pipe, v5_mx_prev_pipe => v5_mx_prev_pipe, v6_pipe => v6_pipe, v3_mx_fb_2_out => v3_mx_fb_2);
  u_node3 : entity work.running_max_dp_node3
    port map ();
  u_pipe_bb3 : entity work.running_max_dp_pipe_bb3
    port map (v0_A0 => A0, v1_mx_prev => v1_mx_prev, v2_t => v2_t, v4_A0_pipe_out => v4_A0_pipe, v5_mx_prev_pipe_out => v5_mx_prev_pipe, v6_pipe_out => v6_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        if valid = '1' then
          mx_reg <= v3_mx_fb_2;
        end if;
      end if;
    end if;
  end process;
  v1_mx_prev <= mx_reg;
  M_o0 <= resize(v3_mx_fb_2, 16);
  last <= resize(v3_mx_fb_2, 16);
end architecture rtl;
